// Command hbat-bench-sweep measures what the sweep engine's caches buy:
// it generates the full report grid (table3 + fig5 + fig7 + fig8 +
// fig9) once with both caches disabled and once with them enabled, and
// writes the wall times, their ratio, and the cache counters as JSON
// (BENCH_sweep.json by default). A third, fully-warm pass over the
// enabled engine records the ceiling, where every spec is a memo hit.
//
// It then benchmarks the two-phase fast-forward methodology: the full
// design × workload grid simulated from reset versus the same grid
// fast-forwarding 90% of each workload functionally (one warmed
// checkpoint per workload, shared across all designs). The wall times
// and their ratio are written as JSON (BENCH_ffwd.json by default;
// -ffwd=false skips the pass).
//
// Finally it benchmarks the functional warm-up engines against each
// other: every workload's checkpoint is built by the reference
// interpreter and by the superblock-translated engine, and the per-pass
// wall times, instruction rates, and translated/interpreted speedup are
// written as JSON (BENCH_emu.json by default; -emu=false skips the
// pass).
//
// Every invocation also appends one commit-stamped line (timestamp,
// git SHA, all three results) to an append-only history file
// (BENCH_history.jsonl by default; -history "" disables), so
// performance can be tracked across commits; CI uploads it as an
// artifact.
//
// Usage:
//
//	hbat-bench-sweep                 # test scale, writes BENCH_sweep.json + BENCH_ffwd.json
//	hbat-bench-sweep -scale small -o bench.json
//	hbat-bench-sweep -spans          # span timeline of the benched sweeps
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"time"

	"hbat"
	"hbat/internal/bpred"
	"hbat/internal/cache"
	"hbat/internal/ckpt"
	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/engine"
	"hbat/internal/obs"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// artifacts is the grid the benchmark times: the five artifacts whose
// specs overlap (table3's runs are fig5's T4 column; the figures share
// every workload build).
var artifacts = []string{"table3", "fig5", "fig7", "fig8", "fig9"}

type result struct {
	Scale     string   `json:"scale"`
	Artifacts []string `json:"artifacts"`
	// CachesOffSeconds rebuilds every program and re-simulates every
	// spec; CachesOnSeconds shares builds and memoized runs across the
	// artifacts; WarmPassSeconds repeats the cached pass (every spec a
	// memo hit).
	CachesOffSeconds float64 `json:"caches_off_seconds"`
	CachesOnSeconds  float64 `json:"caches_on_seconds"`
	WarmPassSeconds  float64 `json:"warm_pass_seconds"`
	// Speedup is caches-off over caches-on wall time.
	Speedup float64 `json:"speedup_off_over_on"`

	BuildHits   uint64 `json:"build_hits"`
	BuildMisses uint64 `json:"build_misses"`
	SpecHits    uint64 `json:"spec_hits"`
	SpecMisses  uint64 `json:"spec_misses"`
}

// ffwdResult is the two-phase benchmark's output (BENCH_ffwd.json).
type ffwdResult struct {
	Scale     string   `json:"scale"`
	Workloads []string `json:"workloads"`
	Designs   []string `json:"designs"`
	// Fraction of each workload's functional instruction count that is
	// fast-forwarded; FastForward holds the resulting per-workload N.
	Fraction    float64           `json:"fraction"`
	FastForward map[string]uint64 `json:"fast_forward"`
	// FullSeconds runs the grid from reset; FFwdSeconds fast-forwards
	// through the warm-up functionally. Both passes use a fresh engine
	// with pre-built programs, so they time simulation alone.
	FullSeconds float64 `json:"full_seconds"`
	FFwdSeconds float64 `json:"ffwd_seconds"`
	// Speedup is full over fast-forwarded wall time.
	Speedup float64 `json:"speedup_full_over_ffwd"`

	CkptHits   uint64 `json:"ckpt_hits"`
	CkptMisses uint64 `json:"ckpt_misses"`
}

// historyRecord is one line of BENCH_history.jsonl: a timestamped,
// commit-stamped snapshot of every benchmark the invocation ran, so
// CI can accumulate a performance series across commits.
type historyRecord struct {
	TS    string      `json:"ts"`
	SHA   string      `json:"sha,omitempty"`
	Scale string      `json:"scale"`
	Sweep *result     `json:"sweep,omitempty"`
	FFwd  *ffwdResult `json:"ffwd,omitempty"`
	Emu   *emuResult  `json:"emu,omitempty"`
}

// gitSHA identifies the benchmarked commit: GITHUB_SHA in CI, the
// build's stamped vcs.revision otherwise, "" when neither exists
// (e.g. `go run` from a dirty tree).
func gitSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

// appendHistory appends rec as one JSON line. Append-only so repeated
// CI runs accumulate a series; a torn final line (crash mid-write)
// leaves every earlier record readable.
func appendHistory(path string, rec historyRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseScale maps a -scale flag value to a workload.Scale.
func parseScale(scaleName string) (workload.Scale, error) {
	switch scaleName {
	case "test":
		return workload.ScaleTest, nil
	case "small":
		return workload.ScaleSmall, nil
	case "full":
		return workload.ScaleFull, nil
	}
	return 0, fmt.Errorf("unknown scale %q", scaleName)
}

// benchFFwd times the full design × workload grid from reset and with
// 90% fast-forward, on fresh engines with prewarmed builds.
func benchFFwd(ctx context.Context, scaleName string) (*ffwdResult, error) {
	scale, err := parseScale(scaleName)
	if err != nil {
		return nil, err
	}
	res := &ffwdResult{
		Scale:       scaleName,
		Workloads:   workload.Names(),
		Designs:     tlb.DesignOrder,
		Fraction:    0.9,
		FastForward: make(map[string]uint64),
	}
	// Per-workload N = 90% of the functional instruction count: the
	// measured window is the last tenth of each program.
	for _, name := range res.Workloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := w.Build(prog.Budget32, scale)
		if err != nil {
			return nil, err
		}
		em, err := emu.New(p, 4096)
		if err != nil {
			return nil, err
		}
		if err := em.Run(0); err != nil {
			return nil, err
		}
		res.FastForward[name] = em.InstCount * 9 / 10
	}
	specs := func(ffwd bool) []engine.RunSpec {
		var out []engine.RunSpec
		for _, d := range res.Designs {
			for _, w := range res.Workloads {
				s := engine.RunSpec{
					Workload: w, Design: d, Budget: prog.Budget32,
					Scale: scale, PageSize: 4096, Seed: 1,
				}
				if ffwd {
					s.FastForward = res.FastForward[w]
				}
				out = append(out, s)
			}
		}
		return out
	}
	pass := func(ffwd bool) (time.Duration, *engine.Engine, error) {
		e := engine.New()
		ss := specs(ffwd)
		if err := e.PrewarmBuilds(ctx, ss); err != nil {
			return 0, nil, err
		}
		start := time.Now()
		results, err := e.RunAll(ctx, ss, 0, nil)
		if err != nil {
			return 0, nil, err
		}
		for i := range results {
			if results[i].Err != nil {
				return 0, nil, results[i].Err
			}
		}
		return time.Since(start), e, nil
	}
	full, _, err := pass(false)
	if err != nil {
		return nil, err
	}
	res.FullSeconds = full.Seconds()
	ffwd, fe, err := pass(true)
	if err != nil {
		return nil, err
	}
	res.FFwdSeconds = ffwd.Seconds()
	if ffwd > 0 {
		res.Speedup = full.Seconds() / ffwd.Seconds()
	}
	cs := fe.CacheStats()
	res.CkptHits, res.CkptMisses = cs.CkptHits, cs.CkptMisses
	return res, nil
}

// emuWorkload is one workload's engine comparison: the same
// FastForward-instruction checkpoint built by both functional engines.
type emuWorkload struct {
	Workload     string `json:"workload"`
	Instructions uint64 `json:"instructions"`
	// Reps is how many timed builds each engine's measurement averages
	// over (adaptive: doubled until the measurement is long enough to
	// trust); the seconds below are per single build.
	InterpReps    int     `json:"interp_reps"`
	SblockReps    int     `json:"sblock_reps"`
	InterpSeconds float64 `json:"interp_seconds"`
	SblockSeconds float64 `json:"sblock_seconds"`
	Speedup       float64 `json:"speedup"`
	// Raw* time the engines alone — execute the same window with no
	// checkpoint consumer attached — so they compare pure
	// instructions/sec, without Build's engine-independent costs
	// (cache warming, page snapshot, checkpoint encode).
	RawInterpSeconds float64 `json:"raw_interp_seconds"`
	RawSblockSeconds float64 `json:"raw_sblock_seconds"`
	RawSpeedup       float64 `json:"raw_speedup"`
}

// emuResult is the functional-engine benchmark's output
// (BENCH_emu.json).
type emuResult struct {
	Scale     string        `json:"scale"`
	Workloads []emuWorkload `json:"workloads"`
	// Totals are one build of every workload's checkpoint; Speedup is
	// interpreted over translated total wall time — how much faster the
	// superblock engine fast-forwards the whole suite.
	TotalInstructions uint64  `json:"total_instructions"`
	InterpSeconds     float64 `json:"interp_seconds"`
	SblockSeconds     float64 `json:"sblock_seconds"`
	InterpInstsPerSec float64 `json:"interp_insts_per_sec"`
	SblockInstsPerSec float64 `json:"sblock_insts_per_sec"`
	Speedup           float64 `json:"speedup_sblock_over_interp"`
	// Raw totals compare the bare engines (no checkpoint consumer):
	// translated vs interpreted instructions/sec over the whole suite.
	RawInterpSeconds     float64 `json:"raw_interp_seconds"`
	RawSblockSeconds     float64 `json:"raw_sblock_seconds"`
	RawInterpInstsPerSec float64 `json:"raw_interp_insts_per_sec"`
	RawSblockInstsPerSec float64 `json:"raw_sblock_insts_per_sec"`
	RawSpeedup           float64 `json:"raw_speedup_sblock_over_interp"`
}

// benchEmu times both functional engines for every workload over the
// same 90% fast-forward window benchFFwd uses, two ways: ckpt.Build
// end to end (what the two-phase methodology actually pays, including
// the engine-independent warming consumer and checkpoint encode) and
// the bare engines (pure translated vs interpreted instructions/sec).
// Both engines produce byte-identical checkpoints — the differential
// battery in internal/ckpt enforces that — so the comparison is pure
// throughput.
func benchEmu(ctx context.Context, scaleName string) (*emuResult, error) {
	scale, err := parseScale(scaleName)
	if err != nil {
		return nil, err
	}
	res := &emuResult{Scale: scaleName}
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := w.Build(prog.Budget32, scale)
		if err != nil {
			return nil, err
		}
		em, err := emu.New(p, 4096)
		if err != nil {
			return nil, err
		}
		if err := em.Run(0); err != nil {
			return nil, err
		}
		n := em.InstCount * 9 / 10
		if n == 0 {
			continue
		}
		build := func(engine string) error {
			_, err := ckpt.Build(ctx, p, ckpt.BuildConfig{
				PageSize:    4096,
				FastForward: n,
				ICache:      cache.DefaultICache(),
				DCache:      cache.DefaultDCache(),
				Branch:      bpred.DefaultConfig(),
				Engine:      engine,
			})
			return err
		}
		// raw executes the same window on a bare engine: no cache
		// warming, no snapshot, no encode — pure instruction delivery.
		raw := func(translated bool) error {
			m, err := emu.New(p, 4096)
			if err != nil {
				return err
			}
			if translated {
				err = sblock.New(m).Run(n)
			} else {
				err = m.Run(n)
			}
			// Exhausting the window's budget is the expected terminal;
			// anything that stopped the engine short is real.
			if err != nil && m.InstCount < n {
				return err
			}
			return nil
		}
		// Per-variant timing: one untimed warm-up pass, then double the
		// rep count until the timed window is long enough to trust.
		timeIt := func(run func() error) (reps int, perRun float64, err error) {
			if err := run(); err != nil {
				return 0, 0, err
			}
			for reps = 1; ; reps *= 2 {
				start := time.Now()
				for i := 0; i < reps; i++ {
					if err := run(); err != nil {
						return 0, 0, err
					}
				}
				elapsed := time.Since(start)
				if elapsed >= 100*time.Millisecond || reps >= 256 {
					return reps, elapsed.Seconds() / float64(reps), nil
				}
			}
		}
		ir, is, err := timeIt(func() error { return build(ckpt.EngineInterpreted) })
		if err != nil {
			return nil, fmt.Errorf("%s/interp: %w", name, err)
		}
		sr, ss, err := timeIt(func() error { return build(ckpt.EngineTranslated) })
		if err != nil {
			return nil, fmt.Errorf("%s/sblock: %w", name, err)
		}
		_, ris, err := timeIt(func() error { return raw(false) })
		if err != nil {
			return nil, fmt.Errorf("%s/raw-interp: %w", name, err)
		}
		_, rss, err := timeIt(func() error { return raw(true) })
		if err != nil {
			return nil, fmt.Errorf("%s/raw-sblock: %w", name, err)
		}
		wl := emuWorkload{
			Workload: name, Instructions: n,
			InterpReps: ir, SblockReps: sr,
			InterpSeconds: is, SblockSeconds: ss,
			RawInterpSeconds: ris, RawSblockSeconds: rss,
		}
		if ss > 0 {
			wl.Speedup = is / ss
		}
		if rss > 0 {
			wl.RawSpeedup = ris / rss
		}
		res.Workloads = append(res.Workloads, wl)
		res.TotalInstructions += n
		res.InterpSeconds += is
		res.SblockSeconds += ss
		res.RawInterpSeconds += ris
		res.RawSblockSeconds += rss
	}
	if res.InterpSeconds > 0 {
		res.InterpInstsPerSec = float64(res.TotalInstructions) / res.InterpSeconds
	}
	if res.SblockSeconds > 0 {
		res.SblockInstsPerSec = float64(res.TotalInstructions) / res.SblockSeconds
		res.Speedup = res.InterpSeconds / res.SblockSeconds
	}
	if res.RawInterpSeconds > 0 {
		res.RawInterpInstsPerSec = float64(res.TotalInstructions) / res.RawInterpSeconds
	}
	if res.RawSblockSeconds > 0 {
		res.RawSblockInstsPerSec = float64(res.TotalInstructions) / res.RawSblockSeconds
		res.RawSpeedup = res.RawInterpSeconds / res.RawSblockSeconds
	}
	return res, nil
}

// pass generates every artifact once and returns the elapsed wall time.
func pass(ctx context.Context, scale string, noCache bool) (time.Duration, error) {
	opts := hbat.ExperimentOptions{CommonOptions: hbat.CommonOptions{Scale: scale}, NoCache: noCache}
	start := time.Now()
	for _, name := range artifacts {
		if err := hbat.RunExperiment(ctx, name, opts, io.Discard); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Since(start), nil
}

func main() {
	var (
		scale    = flag.String("scale", "test", "workload scale: test, small, or full")
		out      = flag.String("o", "BENCH_sweep.json", "output JSON path")
		ffwd     = flag.Bool("ffwd", true, "also benchmark two-phase fast-forward vs full runs")
		ffwdOut  = flag.String("ffwd-o", "BENCH_ffwd.json", "output JSON path for the fast-forward benchmark")
		emuBench = flag.Bool("emu", true, "also benchmark the translated vs interpreted functional engines")
		emuOut   = flag.String("emu-o", "BENCH_emu.json", "output JSON path for the functional-engine benchmark")
		manifest = flag.String("manifest", "", "write a run-provenance manifest (runs + result SHA-256) to this file")
		history  = flag.String("history", "BENCH_history.jsonl", "append a timestamped, commit-stamped JSON line with every benchmark result to this file (\"\" = off)")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	logger, srv, err := obsFlags.Setup(ctx, os.Stderr, hbat.SweepEngine())
	if err != nil {
		fail(err)
	}
	if srv != nil {
		defer srv.Close()
	}

	res := result{Scale: *scale, Artifacts: artifacts}

	// Caches off first: it never touches the process-wide engine, so
	// the caches-on pass that follows still starts cold.
	logger.Info("bench pass", "pass", "1/3", "caches", "off")
	off, err := pass(ctx, *scale, true)
	if err != nil {
		fail(err)
	}
	res.CachesOffSeconds = off.Seconds()

	logger.Info("bench pass", "pass", "2/3", "caches", "on-cold")
	on, err := pass(ctx, *scale, false)
	if err != nil {
		fail(err)
	}
	res.CachesOnSeconds = on.Seconds()

	logger.Info("bench pass", "pass", "3/3", "caches", "on-warm")
	warm, err := pass(ctx, *scale, false)
	if err != nil {
		fail(err)
	}
	res.WarmPassSeconds = warm.Seconds()

	if on > 0 {
		res.Speedup = off.Seconds() / on.Seconds()
	}
	s := hbat.SweepStats()
	res.BuildHits, res.BuildMisses = s.BuildHits, s.BuildMisses
	res.SpecHits, res.SpecMisses = s.SpecHits, s.SpecMisses

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	logger.Info("bench result", "caches_off_s", res.CachesOffSeconds,
		"caches_on_s", res.CachesOnSeconds, "speedup", res.Speedup,
		"warm_s", res.WarmPassSeconds, "path", *out)
	os.Stdout.Write(data)

	var ffwdData []byte
	var fres *ffwdResult
	if *ffwd {
		logger.Info("bench pass", "pass", "ffwd", "grid", "full design x workload, from reset vs 90% fast-forward")
		fres, err = benchFFwd(ctx, *scale)
		if err != nil {
			fail(err)
		}
		ffwdData, err = json.MarshalIndent(fres, "", "  ")
		if err != nil {
			fail(err)
		}
		ffwdData = append(ffwdData, '\n')
		if err := os.WriteFile(*ffwdOut, ffwdData, 0o644); err != nil {
			fail(err)
		}
		logger.Info("ffwd bench result", "full_s", fres.FullSeconds,
			"ffwd_s", fres.FFwdSeconds, "speedup", fres.Speedup,
			"ckpt_hits", fres.CkptHits, "ckpt_misses", fres.CkptMisses,
			"path", *ffwdOut)
		os.Stdout.Write(ffwdData)
	}

	var emuData []byte
	var eres *emuResult
	if *emuBench {
		logger.Info("bench pass", "pass", "emu", "grid", "per-workload ckpt.Build, interpreter vs superblock translation")
		eres, err = benchEmu(ctx, *scale)
		if err != nil {
			fail(err)
		}
		emuData, err = json.MarshalIndent(eres, "", "  ")
		if err != nil {
			fail(err)
		}
		emuData = append(emuData, '\n')
		if err := os.WriteFile(*emuOut, emuData, 0o644); err != nil {
			fail(err)
		}
		logger.Info("emu bench result", "interp_s", eres.InterpSeconds,
			"sblock_s", eres.SblockSeconds, "speedup", eres.Speedup,
			"raw_speedup", eres.RawSpeedup,
			"insts", eres.TotalInstructions, "path", *emuOut)
		os.Stdout.Write(emuData)
	}

	if *history != "" {
		rec := historyRecord{
			TS:    time.Now().UTC().Format(time.RFC3339),
			SHA:   gitSHA(),
			Scale: *scale,
			Sweep: &res,
			FFwd:  fres,
			Emu:   eres,
		}
		if err := appendHistory(*history, rec); err != nil {
			fail(err)
		}
		logger.Info("history appended", "path", *history, "sha", rec.SHA, "ts", rec.TS)
	}

	spansPath, err := obsFlags.FinishSpans()
	if err != nil {
		fail(err)
	}
	if spansPath != "" {
		logger.Info("spans written", "journal", obsFlags.SpansOut+".jsonl", "timeline", spansPath)
	}

	if *manifest != "" {
		m := hbat.NewManifest("hbat-bench-sweep")
		m.RecordRuns(hbat.SweepEngine())
		m.AddArtifactBytes("bench.json", *out, data)
		if ffwdData != nil {
			m.AddArtifactBytes("bench_ffwd.json", *ffwdOut, ffwdData)
		}
		if emuData != nil {
			m.AddArtifactBytes("bench_emu.json", *emuOut, emuData)
		}
		if spansPath != "" {
			if err := m.AddArtifactFile("spans.perfetto.json", spansPath); err != nil {
				fail(err)
			}
		}
		if err := m.WriteFile(*manifest); err != nil {
			fail(err)
		}
		logger.Info("manifest written", "path", *manifest,
			"runs", len(m.Runs), "artifacts", len(m.Artifacts))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hbat-bench-sweep:", err)
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
