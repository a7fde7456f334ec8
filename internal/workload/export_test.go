package workload

// All returns every workload in Table 3 order.
func All() []*Workload {
	names := Names()
	out := make([]*Workload, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}
