package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// beyond counts samples strictly above v.
func beyond(samples []float64, v float64) int {
	n := 0
	for _, s := range samples {
		if s > v {
			n++
		}
	}
	return n
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(1000)
	if p := percentile(s, 0.50); p.V != 500 || p.Q != 0.50 || p.N != 1000 {
		t.Errorf("p50 of 1..1000 = %+v, want 500 at q=0.5", p)
	}
	p := percentile(s, 0.99)
	if p.V != 990 || p.Q != 0.99 {
		t.Errorf("p99 of 1..1000 = %+v, want 990 at q=0.99", p)
	}
	if b := beyond(s, p.V); b != minTail {
		t.Errorf("p99 of 1000 samples keeps %d beyond it, want %d", b, minTail)
	}
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	for _, n := range []int{20, 21, 57, 100, 500, 999, 1000, 1001, 5000} {
		s := seq(n)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			p := percentile(append([]float64(nil), s...), q)
			if p.Q > q {
				t.Errorf("n=%d q=%v: reported quantile %v above the one asked", n, q, p.Q)
			}
			if b := beyond(s, p.V); b < minTail {
				t.Errorf("n=%d q=%v: %d samples beyond the reported value, want >= %d", n, q, b, minTail)
			}
		}
	}
	// Scarce samples lower the quantile instead of reporting a p99 that
	// rests on one observation.
	if p := percentile(seq(100), 0.99); p.Q != 0.9 || p.V != 90 {
		t.Errorf("p99 of 100 samples = %+v, want the p90 (90)", p)
	}
	if p := percentile(seq(19), 0.5); p.Q != 0 || p.V != 0 {
		t.Errorf("19 samples cannot support a median with ten beyond it, got %+v", p)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestFingerprintIsExact(t *testing.T) {
	a := map[string]float64{"read_MBps": 556.17, "op_p99_us": 1884.8}
	b := map[string]float64{"op_p99_us": 1884.8, "read_MBps": 556.17}
	if fingerprint(a) != fingerprint(b) {
		t.Error("fingerprint depends on map order")
	}
	b["read_MBps"] = math.Nextafter(556.17, 1000)
	if fingerprint(a) == fingerprint(b) {
		t.Error("fingerprint missed a one-ulp change")
	}
}
