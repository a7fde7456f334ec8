package cpu

import (
	"testing"

	"hbat/internal/prog"
	"hbat/internal/workload"
)

// TestMetricsRegistryPopulated runs a real workload on the single-
// ported T1 design (maximum port pressure) and cross-checks the metrics
// registry against the aggregate counters it must agree with: every
// cycle sampled into the per-cycle histograms, every TLB hit into the
// translation-latency histogram, and every port rejection into both the
// queue-depth histogram and the replay counter.
func TestMetricsRegistryPopulated(t *testing.T) {
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

	rob, ok := snap.Get("rob.occupancy")
	if !ok || rob.Count != uint64(s.Cycles) {
		t.Errorf("rob.occupancy sampled %d cycles, ran %d", rob.Count, s.Cycles)
	}
	qd, ok := snap.Get("tlb.port_queue_depth")
	if !ok || qd.Count != uint64(s.Cycles) {
		t.Errorf("tlb.port_queue_depth sampled %d cycles, ran %d", qd.Count, s.Cycles)
	}
	if qd.Sum != int64(s.TLBRetries) {
		t.Errorf("queue-depth sum %d, TLBRetries %d", qd.Sum, s.TLBRetries)
	}
	if s.TLBRetries == 0 {
		t.Error("T1 ran without a single port rejection; the test exerts no pressure")
	}

	lat, ok := snap.Get("tlb.translate_extra_cycles")
	if !ok || lat.Count != m.DTLB.Stats().Hits {
		t.Errorf("translation-latency histogram has %d samples, device hit %d times",
			lat.Count, m.DTLB.Stats().Hits)
	}

	for name, want := range map[string]uint64{
		"cpu.replay_tlb_noport": s.TLBRetries,
		"commit.insts":          s.Committed,
		"cpu.cycles":            uint64(s.Cycles),
		"cpu.squash_insts":      s.Squashed,
		"tlb.noport":            m.DTLB.Stats().NoPorts,
		"tlb.hits":              m.DTLB.Stats().Hits,
		"dcache.hits":           m.DCacheStats().Hits,
	} {
		if got := snap.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestMetricsExtraLatencyDistribution checks the device-side histogram:
// on a multi-level design every hit lands in a bucket and slow (L2)
// hits appear above bucket zero.
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
	ts := m.DTLB.Stats()
	var histTotal, slow uint64
	for i, n := range ts.ExtraHist {
		histTotal += n
		if i >= 2 {
			slow += n
		}
	}
	if histTotal != ts.Hits {
		t.Errorf("ExtraHist holds %d samples, device hit %d times", histTotal, ts.Hits)
	}
	if slow == 0 {
		t.Error("M4 produced no >=2-cycle hits; L2 latency is not being observed")
	}
	if ts.ExtraHist[0] == 0 {
		t.Error("M4 produced no zero-latency L1 hits")
	}
}

// TestMetricsFetchStallCauses checks that the split fetch-stall counters
// cover the lumped aggregate.
func TestMetricsFetchStallCauses(t *testing.T) {
	w, _ := workload.ByName("gcc")
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ModelITLB = true
	m, err := NewWithDesign(p, cfg, "T4")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics()
	byCause := snap.CounterValue("fetch.stall_redirect_cycles") +
		snap.CounterValue("fetch.stall_icache_cycles") +
		snap.CounterValue("fetch.stall_itlb_cycles")
	if byCause != uint64(m.Stats().FetchStallCycles) {
		t.Errorf("stall causes sum to %d, aggregate is %d", byCause, m.Stats().FetchStallCycles)
	}
	if snap.CounterValue("fetch.stall_redirect_cycles") == 0 {
		t.Error("gcc ran without a single mispredict-redirect stall")
	}
}
