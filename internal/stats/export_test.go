package stats

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts: it returns the upper bound of the first bucket whose
// cumulative count reaches q of the samples, and the largest observed
// sample for quantiles landing in the overflow bucket. An empty
// histogram reports 0. The estimate is conservative (an upper bound on
// the true quantile within bucket resolution), which is the useful
// direction for latency reporting.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the q-quantile sample, 1-based and rounded up (the
	// conservative direction); q=0 means the first.
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max // overflow bucket: cap at the observed maximum
		}
	}
	return h.max
}

// Get returns the named metric from the snapshot.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
