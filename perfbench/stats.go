package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minTail is the number of samples a reported percentile must keep beyond
// it: a p99 over fewer than 1000 samples would rest on fewer than ten
// observations and is reported at the highest percentile that does not.
const minTail = 10

// effectiveQuantile returns the highest quantile no greater than q whose
// nearest-rank position keeps minTail samples beyond it, and false when n
// is too small to report even the median that way.
func effectiveQuantile(n int, q float64) (float64, bool) {
	if n < 2*minTail {
		return 0, false
	}
	if lim := float64(n-minTail) / float64(n); q > lim {
		q = lim
	}
	return q, true
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// pctl is one reported percentile: the value, the quantile actually used
// (lower than asked when samples are scarce) and the sample count.
type pctl struct {
	V float64
	Q float64
	N int
}

// percentile sorts samples in place and reports the q-quantile under the
// minTail rule. With too few samples the value is zero and Q is zero.
func percentile(samples []float64, q float64) pctl {
	sort.Float64s(samples)
	qe, ok := effectiveQuantile(len(samples), q)
	if !ok {
		return pctl{N: len(samples)}
	}
	return pctl{V: quantile(samples, qe), Q: qe, N: len(samples)}
}

// median returns the middle value (mean of the two middle values for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// fingerprint digests a set of named simulated values. Values are rendered
// with the shortest exact representation, so two digests match only when
// every value is bit-identical.
func fingerprint(vals map[string]float64) string {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(vals[n], 'g', -1, 64))
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
