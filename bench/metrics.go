package main

import (
	"fmt"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json carries the same
// names, units and directions (a unit test holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one. Bound is the share of
// the parent's median by which a metric may worsen before a change
// counts as a regression. A metric has one bound for all six
// workloads, so each is set by its noisiest workload (README.md,
// "Bounds"): the cold-job median sits on Wait's 50 ms poll grid with
// some 80 jobs a run, throughput on the hit loops follows how many
// jobs lose the race against that tick, and the resident-set peak
// follows where in a collection cycle the run ends. Allocation per
// operation repeats to a percent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"sim_minst_per_s", "Minst/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.10},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<what>. A layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, d := range designNames() {
		add("ns", "lower", "tlb.lookup_ns."+metricSafe(d))
	}
	add("count", "lower", "tlb.lookup_allocs")
	add("count", "lower", "tlb.lookups", "tlb.misses", "tlb.walks", "tlb.no_port_retries")
	add("count", "higher", "tlb.shield_hits", "tlb.piggybacks")

	for _, w := range workloadNames() {
		add("Minst/s", "higher", "cpu.minst_per_s."+w)
	}
	add("ns", "lower", "cpu.host_ns_per_cycle")
	add("us", "lower", "cpu.new_us")
	add("ms", "lower", "cpu.restore_ms")
	add("count", "lower", "cpu.run_allocs")
	add("count", "lower", "cpu.cycles", "cpu.fetch_stall_cycles", "cpu.dispatch_tlb_stalls", "cpu.dispatch_rob_full", "cpu.dispatch_lsq_full")
	add("count", "higher", "cpu.committed")

	add("ns", "lower", "cache.access_ns", "bpred.predict_resolve_ns")
	add("ms", "lower", "workload.build_ms")
	add("Minst/s", "higher", "emu.minst_per_s", "sblock.minst_per_s")
	add("count", "lower", "sblock.blocks_built", "sblock.interp_steps", "sblock.slow_fills")

	add("ms", "lower", "ckpt.build_ms", "ckpt.encode_ms", "ckpt.decode_ms")
	add("Minst/s", "higher", "ckpt.build_minst_per_s")
	add("bytes", "lower", "ckpt.bytes")

	add("us", "lower", "engine.memo_hit_us", "engine.run_overhead_us")
	add("ratio", "higher", "engine.busy_frac")
	add("count", "higher", "engine.build_hits", "engine.spec_hits", "engine.ckpt_hits")
	add("count", "lower", "engine.build_misses", "engine.spec_misses", "engine.ckpt_misses")
	add("us", "lower", "harness.render_fig5_us")
	add("ratio", "lower", "harness.fig5_norm_ipc_mae")

	add("us", "lower", "store.put_us.mem", "store.get_us.mem", "store.put_us.disk", "store.get_us.disk")
	add("count", "higher", "store.mem_hits")
	add("count", "lower", "store.puts", "store.mem_evictions", "store.corrupt")

	// The client-side timings appear twice: under transport. for jobs
	// sent straight to an hbatd, under fleet. for jobs sent through the
	// coordinator.
	for _, layer := range []string{"transport", "fleet"} {
		add("ms", "lower", layer+".submit_ms_p50", layer+".status_ms_p50", layer+".result_ms_p50",
			layer+".spec_wall_ms_p50", layer+".job_p50_ms", layer+".job_p90_ms", layer+".job_p99_ms")
		add("count", "lower", layer+".polls_per_job")
		add("ms", "lower", layer+".wait_idle_ms_p50")
		add("ratio", "higher", layer+".store_hit_frac")
	}
	add("us", "lower", "transport.handler_submit_us")
	add("ratio", "lower", "fleet.overhead_ratio_p50")
	add("count", "lower", "fleet.attempts_mean", "fleet.retried_specs")
	add("ratio", "lower", "fleet.worker_share_max")

	add("ratio", "lower", "bench.trace_overhead_frac")
	add("ratio", "higher", "bench.span_covered_frac")
	add("count", "higher", "bench.ops")
	return defs
}

// metricSafe maps a design mnemonic into the metric-name alphabet
// (I4/PB → I4-PB).
func metricSafe(s string) string { return strings.ReplaceAll(s, "/", "-") }

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is the values of one run, keyed by metric name.
type metricSet map[string]float64

// report renders set as the JSON metrics object for defs, checking
// that every declared metric — and nothing else — was measured.
func report(defs []metricDef, set metricSet) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := set[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range set {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}
