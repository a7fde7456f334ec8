package cpu

import (
	"testing"

	"hbat/internal/prog"
	"hbat/internal/stats"
	"hbat/internal/workload"
)

// TestMetricsPopulated runs a real workload on the single-ported T1
// design (maximum port pressure) and cross-checks the run's counts
// against independent ones: every cycle sampled into the per-cycle
// distributions, every TLB hit into the translation-latency one, every
// port rejection the core replayed also refused by the device, and the
// caches' counters copied as the caches hold them.
func TestMetricsPopulated(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithDesign(p, DefaultConfig(), "T1")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	snap := m.Metrics()

	rob, ok := metric(snap, "rob.occupancy")
	if !ok || rob.Count != uint64(s.Cycles) {
		t.Errorf("rob.occupancy sampled %d cycles, ran %d", rob.Count, s.Cycles)
	}
	qd, ok := metric(snap, "tlb.port_queue_depth")
	if !ok || qd.Count != uint64(s.Cycles) {
		t.Errorf("tlb.port_queue_depth sampled %d cycles, ran %d", qd.Count, s.Cycles)
	}
	if qd.Sum != int64(s.TLBRetries) {
		t.Errorf("queue-depth sum %d, TLBRetries %d", qd.Sum, s.TLBRetries)
	}
	if s.TLBRetries == 0 {
		t.Error("T1 ran without a single port rejection; the test exerts no pressure")
	}
	if ts := m.DTLB.Stats(); ts.NoPorts != s.TLBRetries {
		t.Errorf("device refused %d lookups for want of a port, core replayed %d", ts.NoPorts, s.TLBRetries)
	}

	lat, ok := metric(snap, "tlb.translate_extra_cycles")
	if !ok || lat.Count != m.DTLB.Stats().Hits {
		t.Errorf("translation-latency histogram has %d samples, device hit %d times",
			lat.Count, m.DTLB.Stats().Hits)
	}

	if s.DCache != *m.dcache.Stats() || s.ICache != *m.icache.Stats() {
		t.Errorf("Stats holds caches %+v / %+v, the caches count %+v / %+v",
			s.DCache, s.ICache, *m.dcache.Stats(), *m.icache.Stats())
	}
}

// TestMetricsExtraLatencyDistribution checks the translation-latency
// distribution on a multi-level design: every hit lands in a bucket
// and slow (L2) hits appear above bucket zero.
func TestMetricsExtraLatencyDistribution(t *testing.T) {
	w, _ := workload.ByName("xlisp")
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithDesign(p, DefaultConfig(), "M4")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ts, d := m.DTLB.Stats(), m.Stats().TransExtra
	var histTotal, slow uint64
	for i, n := range d.Buckets {
		histTotal += n
		if i >= 2 { // transExtraBounds[2] is 2 cycles
			slow += n
		}
	}
	if histTotal != ts.Hits {
		t.Errorf("TransExtra holds %d samples, device hit %d times", histTotal, ts.Hits)
	}
	if slow == 0 {
		t.Error("M4 produced no >=2-cycle hits; L2 latency is not being observed")
	}
	if d.Buckets[0] == 0 {
		t.Error("M4 produced no zero-latency L1 hits")
	}
}

// TestMetricsFetchStallCauses checks that every fetch-stall cycle has
// a cause: the two exported causes sum to FetchStallCycles.
func TestMetricsFetchStallCauses(t *testing.T) {
	w, _ := workload.ByName("gcc")
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithDesign(p, DefaultConfig(), "T4")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics()
	byCause := counterValue(snap, "fetch.stall_redirect_cycles") +
		counterValue(snap, "fetch.stall_icache_cycles")
	if byCause != uint64(m.Stats().FetchStallCycles()) {
		t.Errorf("stall causes sum to %d, aggregate is %d", byCause, m.Stats().FetchStallCycles())
	}
	if counterValue(snap, "fetch.stall_redirect_cycles") == 0 {
		t.Error("gcc ran without a single mispredict-redirect stall")
	}
}

// metric returns the named metric from s.
func metric(s stats.Snapshot, name string) (stats.Metric, bool) {
	for _, m := range s {
		if m.Name == name {
			return m, true
		}
	}
	return stats.Metric{}, false
}

// counterValue returns the named counter's value in s (0 when absent).
func counterValue(s stats.Snapshot, name string) uint64 {
	m, _ := metric(s, name)
	return m.Value
}
