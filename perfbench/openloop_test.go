package main

import (
	"testing"
	"time"

	"repro/internal/des"
)

func TestScheduleCutsAtDeadline(t *testing.T) {
	const window = 50 * time.Millisecond
	gap := arrivalGap(muxRecord, 200, muxClients) // ~335 ms: most clients issue 0 or 1
	scheds := rungSchedules(7, 0, muxClients, gap, window, muxBlocks, muxWriteOne)
	total := 0
	for c, s := range scheds {
		var last des.Duration
		for _, a := range s {
			if a.at >= window || a.at < last {
				t.Fatalf("client %d: arrival at %v outside the window or out of order", c, a.at)
			}
			last = a.at
		}
		total += len(s)
	}
	// Every arrival inside the window is issued and none beyond it: the
	// issued count matches the offered rate over the window alone.
	want := float64(window) / float64(gap) * muxClients
	if f := float64(total); f < 0.85*want || f > 1.15*want {
		t.Errorf("%d arrivals in the window, want about %.0f", total, want)
	}
}

func TestAssignWritesExactMix(t *testing.T) {
	gap := arrivalGap(muxRecord, 400, muxClients)
	scheds := rungSchedules(3, 1, muxClients, gap, muxRungWindow(1, 1), muxBlocks, muxWriteOne)
	n, w := 0, 0
	for _, s := range scheds {
		for _, a := range s {
			n++
			if a.write {
				w++
			}
		}
	}
	if lo, hi := n/muxWriteOne, n/muxWriteOne+1; w < lo || w > hi {
		t.Errorf("%d writes among %d arrivals, want one in %d", w, n, muxWriteOne)
	}
}

// rung builds a rung with n reads at latency lat µs each.
func rung(rate float64, n int, lat float64) rungStats {
	st := rungStats{OfferedMBps: rate}
	for i := 0; i < n; i++ {
		st.ReadLat = append(st.ReadLat, lat)
	}
	return st
}

func TestSLORate(t *testing.T) {
	ok := rung(200, 1300, 400)
	if !meetsSLO(&ok) {
		t.Fatal("a rung with p99 400 µs, no drops and a flat backlog should meet the SLO")
	}
	slow := rung(800, 1300, 400)
	for i := 0; i < 20; i++ { // 20 of 1300 reads over budget: p99 breaks it
		slow.ReadLat[i] = 1500
	}
	drops := rung(600, 1300, 400)
	drops.Dropped = 1
	growing := rung(700, 1300, 400)
	growing.BacklogMid, growing.BacklogEnd = 100, 200
	scarce := rung(300, 999, 400) // a p99 needs 1000 reads
	for _, tc := range []struct {
		name string
		r    rungStats
	}{{"p99 over budget", slow}, {"drops", drops}, {"growing backlog", growing}, {"too few reads", scarce}} {
		if meetsSLO(&tc.r) {
			t.Errorf("%s: rung should miss the SLO", tc.name)
		}
	}
	if got := sloRate([]rungStats{ok, rung(400, 1300, 600), drops, growing, slow}); got != 400 {
		t.Errorf("slo rate = %v, want 400 (the highest rung meeting every condition)", got)
	}
	if got := sloRate([]rungStats{slow}); got != 0 {
		t.Errorf("slo rate with no passing rung = %v, want 0", got)
	}
}

func TestBacklogGrowing(t *testing.T) {
	for _, tc := range []struct {
		mid, end int64
		want     bool
	}{
		{4, 6, false},       // jitter around a stable depth
		{0, 30, false},      // within the absolute slack
		{0, 40, true},       // beyond it
		{300, 420, false},   // deep but growing less than half
		{300, 600, true},    // a saturated queue doubling over the second half
		{500, 100, false},   // draining
		{175, 352, true},    // the 1000 MB/s rung of the ladder
		{18, 59, true},      // past the knee at a low depth
		{9, 24, false},      // below the knee
		{4000, 4000, false}, // flat, however deep
	} {
		if got := backlogGrowing(tc.mid, tc.end); got != tc.want {
			t.Errorf("backlogGrowing(%d, %d) = %v, want %v", tc.mid, tc.end, got, tc.want)
		}
	}
}

// TestOpenLoopAchievedMatchesIssued runs scale-mux's ladder with its 1024
// clients and checks that, below the knee, every issued byte completes and
// the achieved rate over the window plus the drain is within 5% of the
// issued rate over the window. A generator that sleeps past the deadline
// inflates the elapsed time and reports a fraction of the real rate here.
func TestOpenLoopAchievedMatchesIssued(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 1024-client ladder")
	}
	r := &rep{wl: scaleMux, seed: 1, prefix: 1}
	r.execute()
	if len(r.rec.failures) > 0 {
		t.Fatalf("checks failed: %v", r.rec.failures)
	}
	for i := 0; i <= muxNominal; i++ {
		st := &r.rungs[i]
		if done := st.ReadBytes + st.WriteBytes; done != st.IssuedBytes || st.Dropped != 0 {
			t.Errorf("rung %v MB/s: completed %d of %d issued bytes, %d dropped", st.OfferedMBps, done, st.IssuedBytes, st.Dropped)
		}
		if a, is := st.AchievedMBps(), st.IssuedMBps(); a < 0.95*is || a > is {
			t.Errorf("rung %v MB/s: achieved %.1f MB/s, issued %.1f MB/s per window", st.OfferedMBps, a, is)
		}
		if st.Elapsed < st.Window {
			t.Errorf("rung %v MB/s: elapsed %v shorter than its window %v", st.OfferedMBps, st.Elapsed, st.Window)
		}
	}
}
