package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setUps is how often a run sets its workload up: setup_s is the
// median of the three and the last instance is the one measured.
const setUps = 3

// runConfig is one invocation: one workload, one seed, one run length,
// traced or not.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Out      string // directory for trace files, records and scratch
}

// record is everything one invocation measured. The last line of
// standard output is its result (the four keys the benchmark contract
// names); the whole record goes to <out>/run-<workload>-<mode>.json,
// where the full run and compare pick it up.
type record struct {
	Schema   string  `json:"schema"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`

	result
	// SimDigest and Exact identify the simulated outcome: two runs of
	// one commit with one seed must agree on both.
	SimDigest string            `json:"sim_digest"`
	Exact     map[string]uint64 `json:"exact"`
	// Problems lists what the checks found (at most the first twenty).
	Problems []string `json:"problems,omitempty"`
}

// result is the benchmark contract's result object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const recordSchema = "hbat-bench-run/1"

func (c runConfig) recordPath() string {
	mode := "untraced"
	if c.Trace {
		mode = "traced"
	}
	return filepath.Join(c.Out, "run-"+c.Workload+"-"+mode+".json")
}

// runOne sets the workload up, measures it, checks its outputs and
// returns the record.
func runOne(ctx context.Context, cfg runConfig) (*record, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}

	var inst instance
	var setupSecs []float64
	for i := 0; i < setUps; i++ {
		if inst != nil {
			inst.close(ctx)
		}
		t0 := time.Now()
		if inst, err = w.setUp(ctx, cfg.Seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer func() { inst.close(ctx) }()

	d := time.Duration(cfg.Seconds * float64(time.Second))
	runtime.GC() // set-up's garbage is not the timed region's to collect
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := inst.run(ctx, d, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	set := metricSet{}
	problems := st.bad
	attempted, failed := st.lat.attempted(), st.lat.failed
	if !cfg.Trace {
		set["setup_s"] = median(setupSecs)
		set["op_p50_ms"] = finite(st.lat.percentile(50), cfg.Seconds*1e3)
		set["ops_per_s"] = st.opsPerS
		set["sim_minst_per_s"] = float64(st.insts) / st.seconds / 1e6
		set["peak_rss_mb"] = rss
		set["alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(max(attempted, 1))
	} else {
		tr := newTracer()
		runtime.GC()
		ts, err := inst.run(ctx, d, tr)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ts.bad...)
		attempted += ts.lat.attempted()
		failed += ts.lat.failed
		if err := tracedMetrics(ctx, w, cfg, set, st, ts, tr); err != nil {
			return nil, err
		}
		if err := tr.writeFile(filepath.Join(cfg.Out, "trace-"+cfg.Workload+".json")); err != nil {
			return nil, err
		}
	}

	bad, err := inst.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	problems = append(problems, bad...)
	failed = min(attempted, failed+len(bad))

	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	metrics, err := report(defs, set)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Schema: recordSchema, Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		result:    result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: metrics},
		SimDigest: st.digest, Exact: exactCounts(st),
		Problems: problems[:min(len(problems), 20)],
	}
	return rec, nil
}

// finite replaces a percentile that fell among failed operations (+Inf)
// with the whole run length: an operation that failed took, at best,
// the run.
func finite(v, cap float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return cap
	}
	return v
}

// exactCounts lists the simulated counts that must repeat exactly.
func exactCounts(st *runStats) map[string]uint64 {
	c := st.counts
	return map[string]uint64{
		"results": c.Results, "cycles": c.Cycles, "committed": c.Committed, "fast_forwarded": c.FastForwarded,
		"tlb_lookups": c.TLBLookups, "tlb_misses": c.TLBMisses, "tlb_walks": c.TLBWalks,
		"shield_hits": c.ShieldHits, "piggybacks": c.Piggybacks, "no_port_retries": c.NoPortRetries,
		"fetch_stall_cycles": c.FetchStallCycles, "dispatch_tlb_stalls": c.DispatchTLBStalls,
		"dispatch_rob_full": c.DispatchROBFull, "dispatch_lsq_full": c.DispatchLSQFull,
	}
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// tracedMetrics fills set with every per-layer metric: the workload's
// own attribution from the traced run ts and its spans, the untraced
// run un for the tracing overhead, and the layer ladder.
func tracedMetrics(ctx context.Context, w workloadDef, cfg runConfig, set metricSet, un, ts *runStats, tr *tracer) error {
	for _, d := range perLayer {
		set[d.Name] = 0
	}
	spans := tr.snapshot()

	c := ts.counts
	set["tlb.lookups"], set["tlb.misses"], set["tlb.walks"] = float64(c.TLBLookups), float64(c.TLBMisses), float64(c.TLBWalks)
	set["tlb.shield_hits"], set["tlb.piggybacks"], set["tlb.no_port_retries"] = float64(c.ShieldHits), float64(c.Piggybacks), float64(c.NoPortRetries)
	set["cpu.cycles"], set["cpu.committed"] = float64(c.Cycles), float64(c.Committed)
	set["cpu.fetch_stall_cycles"], set["cpu.dispatch_tlb_stalls"] = float64(c.FetchStallCycles), float64(c.DispatchTLBStalls)
	set["cpu.dispatch_rob_full"], set["cpu.dispatch_lsq_full"] = float64(c.DispatchROBFull), float64(c.DispatchLSQFull)

	e := ts.engine
	set["engine.busy_frac"] = ts.busyFrac
	set["engine.build_hits"], set["engine.build_misses"] = float64(e.BuildHits), float64(e.BuildMisses)
	set["engine.spec_hits"], set["engine.spec_misses"] = float64(e.SpecHits), float64(e.SpecMisses)
	set["engine.ckpt_hits"], set["engine.ckpt_misses"] = float64(e.CkptHits), float64(e.CkptMisses)
	set["store.mem_hits"], set["store.puts"] = float64(ts.store.MemHits), float64(ts.store.Puts)
	set["store.mem_evictions"], set["store.corrupt"] = float64(ts.store.MemEvictions), float64(ts.store.Corrupt)

	if w.grid == nil {
		clientMetrics(set, w.layer(), ts, spans)
		if w.fleet {
			// The same jobs straight to one hbatd, traced the same way,
			// in this process: the base of the coordinator's overhead.
			base, baseSpans, err := directBaseline(ctx, cfg, w.cold)
			if err != nil {
				return err
			}
			clientMetrics(set, "transport", base, baseSpans)
			if p50 := base.lat.percentile(50); p50 > 0 {
				set["fleet.overhead_ratio_p50"] = finite(ts.lat.percentile(50), cfg.Seconds*1e3) / p50
			}
			sv := ts.serving
			if sv.specs > 0 {
				set["fleet.attempts_mean"] = float64(sv.attempts) / float64(sv.specs)
				top := 0
				for _, n := range sv.byWorker {
					top = max(top, n)
				}
				set["fleet.worker_share_max"] = float64(top) / float64(sv.specs)
			}
			set["fleet.retried_specs"] = float64(sv.retried)
		}
	}

	if p50 := un.lat.percentile(50); p50 > 0 && !math.IsInf(p50, 0) {
		set["bench.trace_overhead_frac"] = (finite(ts.lat.percentile(50), cfg.Seconds*1e3) - p50) / p50
	}
	set["bench.ops"] = float64(ts.lat.attempted())
	set["bench.span_covered_frac"] = coveredFrac(spans)

	return runLadder(ctx, tr, cfg.Seed, cfg.Out, set)
}

// directBaseline runs serve-hit's (or serve-cold's) loop, traced, for
// half the run length against a freshly mounted hbatd.
func directBaseline(ctx context.Context, cfg runConfig, cold bool) (*runStats, []span, error) {
	inst, err := setUpServing(ctx, cfg.Seed, false, cold)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close(ctx)
	tr := newTracer()
	st, err := inst.run(ctx, time.Duration(cfg.Seconds*float64(time.Second))/2, tr)
	return st, tr.snapshot(), err
}

// clientMetrics derives one serving layer's client-side metrics from a
// traced run's job statuses and spans. Wait's self time is the time it
// spent in no request: its poll tick.
func clientMetrics(set metricSet, layer string, st *runStats, spans []span) {
	dur, self := spanTimes(spans, false), spanTimes(spans, true)
	set[layer+".submit_ms_p50"] = median(dur["submit"])
	set[layer+".status_ms_p50"] = median(dur["poll"])
	set[layer+".result_ms_p50"] = median(dur["result"])
	set[layer+".wait_idle_ms_p50"] = median(self["wait"])
	if jobs := len(dur["job"]); jobs > 0 {
		set[layer+".polls_per_job"] = float64(len(dur["poll"])) / float64(jobs)
	}
	set[layer+".spec_wall_ms_p50"] = median(st.serving.specWallMs)
	if st.serving.specs > 0 {
		set[layer+".store_hit_frac"] = float64(st.serving.storeHits) / float64(st.serving.specs)
	}
	run := st.seconds * 1e3
	set[layer+".job_p50_ms"] = finite(st.lat.quote(50), run)
	set[layer+".job_p90_ms"] = finite(st.lat.quote(90), run)
	set[layer+".job_p99_ms"] = finite(st.lat.quote(99), run)
}

// coveredFrac is the share of the operations' root spans (pass, job)
// that their child spans cover: how much of an operation's time the
// trace attributes to a layer.
func coveredFrac(spans []span) float64 {
	self := selfTimes(spans)
	var total, uncovered int64
	for i, s := range spans {
		if s.Parent < 0 && (s.Name == "pass" || s.Name == "job") {
			total += s.EndUS - s.StartUS
			uncovered += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(uncovered)/float64(total)
}

//go:embed paper_fig5.json
var paperFig5JSON []byte

// fig5MAE is the mean absolute difference, over the twelve non-T4
// designs, between the pass's run-time-weighted normalized IPC and the
// paper's Figure 5 — simulated accuracy, at the pass's scale.
func fig5MAE(pass *gridPass) float64 {
	var paper struct {
		NormIPC map[string]float64 `json:"norm_ipc"`
	}
	if err := json.Unmarshal(paperFig5JSON, &paper); err != nil {
		panic("paper_fig5.json: " + err.Error()) // embedded at build time
	}
	var sum float64
	n := 0
	for _, d := range designNames() {
		if want, ok := paper.NormIPC[d]; ok && d != "T4" {
			sum += math.Abs(pass.normalizedAvg(d) - want)
			n++
		}
	}
	return sum / float64(n)
}
