package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (the mean of the middle two
// for an even count), or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies is the latency record of one closed loop. A failed
// operation has no latency of its own: it counts as slower than any
// limit, so it is kept as a count that every percentile ranks last.
type latencies struct {
	ok     []float64 // milliseconds, successful operations
	failed int
}

func (l *latencies) succeed(ms float64) { l.ok = append(l.ok, ms) }
func (l *latencies) fail()              { l.failed++ }
func (l *latencies) attempted() int     { return len(l.ok) + l.failed }

func (l *latencies) merge(o latencies) {
	l.ok = append(l.ok, o.ok...)
	l.failed += o.failed
}

// percentile returns the p-th percentile (0 < p < 100) over every
// attempted operation, nearest-rank; +Inf when the rank falls among
// the failed ones.
func (l *latencies) percentile(p float64) float64 {
	n := l.attempted()
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), l.ok...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		return math.Inf(1)
	}
	return s[rank-1]
}

// supported reports whether n samples support quoting percentile p:
// at least ten samples must lie beyond it.
func supported(p float64, n int) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9 // 100-99.9 is not exactly 0.1
}

// quote returns the p-th percentile when the sample supports it and 0
// when it does not, so an unsupported tail is never reported as if it
// were measured.
func (l *latencies) quote(p float64) float64 {
	if !supported(p, l.attempted()) {
		return 0
	}
	return l.percentile(p)
}

// quartiles returns the first and third quartile of vs (at least two
// values) as Python's statistics.quantiles(vs, n=4) computes them, the
// rule the benchmark's acceptance check uses.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	at := func(i int) float64 {
		j := i * (ld + 1) / n
		j = min(max(j, 1), ld-1)
		delta := i*(ld+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}
