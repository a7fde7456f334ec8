// Package hbat is the public API of the high-bandwidth address
// translation study: a reproduction of Austin & Sohi, "High-Bandwidth
// Address Translation for Multiple-Issue Processors" (ISCA 1996).
//
// The package wraps an execution-driven cycle simulator of the paper's
// baseline 8-way superscalar machine (Table 1), thirteen address-
// translation designs (Table 2: multi-ported, interleaved, multi-level,
// piggybacked, and pretranslation TLBs), and synthetic versions of the
// ten benchmarks of Table 3. Simulate runs one workload on one design;
// the Figure*/Table* functions regenerate the paper's evaluation
// artifacts. Lower-level building blocks (the TLB devices themselves,
// the pipelines, the program builder) live in internal/ packages and
// are exercised through this facade.
package hbat

import (
	"context"
	"fmt"
	"io"
	"time"

	"hbat/api"
	"hbat/internal/cpu"
	"hbat/internal/engine"
	"hbat/internal/harness"
	"hbat/internal/pipetrace"
	"hbat/internal/prog"
	"hbat/internal/stats"
	"hbat/internal/store"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// defaultEngine is the package's shared sweep engine: every simulation
// and experiment driven through the facade shares its workload build
// cache and RunSpec memoization, so regenerating several artifacts
// from one process builds each program once and simulates each unique
// spec once. Cached programs and results are immutable, which is what
// makes process-wide sharing safe.
var defaultEngine = engine.New()

// SweepCacheStats is a point-in-time read of the shared sweep engine's
// cache counters (workload builds and RunSpec memoization).
type SweepCacheStats = engine.CacheStats

// SweepStats returns the shared sweep engine's cache counters.
func SweepStats() SweepCacheStats { return defaultEngine.CacheStats() }

// SweepEngine returns the package's shared sweep engine, so callers
// can attach observability (structured logging, heartbeat, live
// /metrics scrapes) to the same engine the facade drives.
func SweepEngine() *engine.Engine { return defaultEngine }

// ErrEngineStarted is returned by SetCheckpointDir once the shared
// engine has executed work: the checkpoint store is frozen at first
// use so a concurrent sweep never observes a half-applied change.
var ErrEngineStarted = engine.ErrStarted

// SetCheckpointDir makes the shared sweep engine keep fast-forward
// checkpoints in a result store under dir ("" keeps none), so later
// processes skip warm-ups already done. Must be called before the first
// simulation; afterwards it returns ErrEngineStarted.
func SetCheckpointDir(dir string) error {
	if dir == "" {
		return defaultEngine.SetCheckpointStore(nil)
	}
	s, err := store.New(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	return defaultEngine.SetCheckpointStore(s)
}

// Manifest is the run-provenance record written alongside sweep
// artifacts; see engine.Manifest.
type Manifest = engine.Manifest

// NewManifest returns a manifest stamped with the current build's
// identity (go version, VCS revision when available) and time.
func NewManifest(tool string) *Manifest { return engine.NewManifest(tool, time.Now()) }

// CommonOptions is the option set shared by every entry point — one
// run (Options), a grid (ExperimentOptions), or a remote job
// (api.SimOptions): workload scale, seed, and the two-phase
// fast-forward length. It is the wire type api.CommonOptions, so the
// CLI, the facade, and the hbatd service all marshal the same struct.
type CommonOptions = api.CommonOptions

// Options selects what Simulate runs. The embedded CommonOptions
// carries Scale, Seed, and FastForward.
type Options struct {
	CommonOptions

	// Workload is one of Workloads() (default "compress").
	Workload string
	// Design is one of Designs() (default "T4").
	Design string
	// PageSize is the virtual-memory page size (default 4096; the
	// paper evaluates 4096 and 8192).
	PageSize uint64
	// InOrder selects the in-order issue model (default out-of-order).
	InOrder bool
	// FewRegisters recompiles the workload for 8 int / 8 fp registers
	// (the paper's Figure 9 configuration).
	FewRegisters bool
	// VirtualCache switches to a virtually-indexed data cache, where
	// translation is needed only on cache misses (the alternative the
	// paper's Section 3 discusses and sets aside).
	VirtualCache bool
	// ContextSwitchEvery, when non-zero, flushes all translation state
	// every N committed instructions (multiprogramming pressure).
	ContextSwitchEvery uint64
	// MaxInsts optionally caps committed instructions (0 = run to
	// completion).
	MaxInsts uint64
	// Lockstep runs the golden-model differential checker alongside the
	// pipeline: any divergence of architected state from the functional
	// emulator is returned as an error instead of skewing statistics.
	Lockstep bool
	// Trace, when non-nil, records pipeline events during the run; the
	// captured trace is returned as Result.Trace.
	Trace *TraceOptions
	// IntervalEvery, when positive, samples an interval time-series row
	// (IPC, TLB miss rate, ROB occupancy, port queue depth) every N
	// cycles into Result.Intervals.
	IntervalEvery int64
	// Progress, when non-nil, is invoked every ProgressEvery cycles
	// (default ~1M) with live cycle/instruction counts — a heartbeat for
	// long runs.
	Progress      func(cycle int64, committed uint64)
	ProgressEvery int64
}

// TraceOptions bounds a pipeline-event recording (see internal/pipetrace).
type TraceOptions struct {
	// Buffer is the ring-buffer capacity in events (default 65536);
	// oldest events are overwritten once it fills.
	Buffer int
	// Start and End bound the recorded cycle range, inclusive
	// (Start<=1 means from the beginning; End 0 means to the end).
	Start, End int64
}

// PipelineTrace is a captured pipeline event recording. Export it with
// its WritePerfetto (Chrome/Perfetto trace-event JSON for
// ui.perfetto.dev), WriteKonata (Konata pipeline-viewer log), or
// WriteSummary (plain-text stall report) methods.
type PipelineTrace = pipetrace.Recorder

// IntervalSeries is a sampled time series of run metrics; export it
// with WriteCSV.
type IntervalSeries = stats.IntervalSeries

// MetricsSnapshot is a run's metrics export, counters and histograms
// sorted by name (see internal/stats). It marshals to stable JSON and
// CSV via WriteJSON and WriteCSV.
type MetricsSnapshot = stats.Snapshot

// Result reports one simulation. The embedded api.Result carries the
// deterministic outcome fields (cycles, IPC, TLB behaviour, stall
// breakdown) in their canonical wire form, so a facade run and an
// hbatd-served result for the same spec are comparable byte-for-byte
// (engine.Artifact renders them).
type Result struct {
	api.Result

	// Metrics is the run's full metrics export: queue-depth and
	// translation-latency distributions, replay and squash counts,
	// per-cause stall cycles and the aggregate counters, rendered from
	// the engine's result (engine.RunResult.Metrics). Local runs only —
	// it does not cross the wire.
	Metrics MetricsSnapshot

	// Trace is the captured pipeline recording (nil unless
	// Options.Trace was set).
	Trace *PipelineTrace
	// Intervals is the sampled time series (nil unless
	// Options.IntervalEvery was positive).
	Intervals *IntervalSeries
}

func parseScale(s string) (workload.Scale, error) {
	sc, err := engine.ParseScale(s)
	if err != nil {
		return 0, fmt.Errorf("hbat: %w", err)
	}
	return sc, nil
}

// wire lowers the options to their wire form: the outcome-affecting
// fields an hbatd job carries. Observation-only options (Trace,
// IntervalEvery, Progress) are deliberately absent — they never cross
// the wire.
func (o Options) wire() api.SimOptions {
	return api.SimOptions{
		CommonOptions:      o.CommonOptions,
		Workload:           o.Workload,
		Design:             o.Design,
		PageSize:           o.PageSize,
		InOrder:            o.InOrder,
		FewRegisters:       o.FewRegisters,
		VirtualCache:       o.VirtualCache,
		ContextSwitchEvery: o.ContextSwitchEvery,
		MaxInsts:           o.MaxInsts,
		Lockstep:           o.Lockstep,
	}
}

func (o Options) spec() (engine.RunSpec, error) {
	spec, err := engine.SpecFromWire(o.wire())
	if err != nil {
		return engine.RunSpec{}, fmt.Errorf("hbat: %w", err)
	}
	if o.Trace != nil {
		spec.Trace = &pipetrace.Config{Cap: o.Trace.Buffer, Start: o.Trace.Start, End: o.Trace.End}
	}
	spec.IntervalEvery = o.IntervalEvery
	spec.Progress = o.Progress
	spec.ProgressEvery = o.ProgressEvery
	return spec, nil
}

// Simulate runs one workload on one translation design and returns the
// run's statistics, honoring ctx: a cancelled context interrupts the
// simulation at a cycle-granular check and returns ctx.Err().
// Deterministic, untraced runs are memoized process-wide, so repeating
// an identical simulation returns immediately.
func Simulate(ctx context.Context, o Options) (*Result, error) {
	spec, err := o.spec()
	if err != nil {
		return nil, err
	}
	r := defaultEngine.Run(ctx, spec)
	if r.Err != nil {
		return nil, r.Err
	}
	return &Result{
		Result:    engine.Wire(r),
		Metrics:   r.Metrics(),
		Trace:     r.Trace,
		Intervals: r.Intervals,
	}, nil
}

// Designs returns the Table 2 design mnemonics in figure order.
func Designs() []string {
	out := make([]string, len(tlb.DesignOrder))
	copy(out, tlb.DesignOrder)
	return out
}

// DesignDescription returns the Table 2 description of a mnemonic.
func DesignDescription(mnemonic string) (string, error) {
	s, err := tlb.LookupSpec(mnemonic)
	if err != nil {
		return "", err
	}
	return s.Description, nil
}

// Workloads returns the benchmark names in Table 3 order.
func Workloads() []string { return workload.Names() }

// WorkloadDescription returns what the named synthetic workload models.
func WorkloadDescription(name string) (string, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return "", err
	}
	return w.Model, nil
}

// RunProgress reports one completed simulation inside an experiment
// grid.
type RunProgress struct {
	// Done runs have finished out of Total.
	Done, Total int
	// Spec labels the run that just finished
	// (workload/design/mode/pages/budget).
	Spec string
	// Wall is that run's wall time; Cached reports it was served from
	// the process-wide result cache instead of being simulated.
	Wall   time.Duration
	Cached bool
	// Elapsed is wall time since the experiment started; ETA estimates
	// the remaining wall time (zero until the scheduler has data).
	Elapsed, ETA time.Duration
}

// ExperimentOptions configures a full-grid experiment. The embedded
// CommonOptions carries Scale, Seed, and FastForward — the same
// struct Options embeds, so single runs, grids, and remote
// jobs share one option vocabulary.
type ExperimentOptions struct {
	CommonOptions

	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Workloads/Designs restrict the grid (nil = everything).
	Workloads []string
	Designs   []string
	// Progress, when non-nil, is called after each completed run.
	Progress func(RunProgress)
}

func (o ExperimentOptions) harness() (harness.Options, error) {
	scale, err := parseScale(o.Scale)
	if err != nil {
		return harness.Options{}, err
	}
	ho := harness.Options{
		Scale:       scale,
		Parallelism: o.Parallelism,
		Seed:        o.Seed,
		FastForward: o.FastForward,
		Workloads:   o.Workloads,
		Designs:     o.Designs,
		Engine:      defaultEngine,
	}
	if o.Progress != nil {
		p := o.Progress
		ho.Progress = func(hp engine.Progress) {
			rp := RunProgress{
				Done: hp.Done, Total: hp.Total,
				Elapsed: hp.Elapsed, ETA: hp.ETA,
			}
			if hp.Result != nil {
				rp.Spec = hp.Result.Spec.String()
				rp.Wall = hp.Result.Wall
				rp.Cached = hp.Result.Cached
			}
			p(rp)
		}
	}
	return ho, nil
}

// Disassemble writes a listing of the named workload's generated code
// (labels, spill code, data segments) under the given register budget —
// development tooling for inspecting what the program builder emits.
func Disassemble(workloadName, scale string, fewRegisters bool, w io.Writer) error {
	sc, err := parseScale(scale)
	if err != nil {
		return err
	}
	wl, err := workload.ByName(workloadName)
	if err != nil {
		return err
	}
	budget := prog.Budget32
	if fewRegisters {
		budget = prog.Budget8
	}
	p, err := wl.Build(budget, sc)
	if err != nil {
		return err
	}
	p.Disassemble(w)
	return nil
}

// BaselineConfig returns a rendering of the Table 1 baseline machine.
func BaselineConfig() string {
	c := cpu.DefaultConfig()
	return fmt.Sprintf(`Baseline simulation model (Table 1):
  fetch:      %d insts/cycle from one I-cache block, <=%d predictions (collapsing buffer)
  issue:      %d ops/cycle, %d-entry ROB, %d-entry load/store queue
  commit:     %d ops/cycle
  FUs:        %d int ALU, %d load/store, %d FP add, 1 int MULT/DIV, 1 FP MULT/DIV
  latencies:  int %d, load %d, int mult %d, int div %d, fp add %d, fp mult %d, fp div %d
  predictor:  GAp, %d-bit global history, %d-entry PHT, %d-cycle mispredict penalty
  I-cache:    %dk %d-way, %dB blocks, %d-cycle miss
  D-cache:    %dk %d-way, %dB blocks, %d-cycle miss, %d ports, non-blocking, write-back
  VM:         %d-byte pages, %d-cycle TLB miss latency (after earlier insts complete)`,
		c.FetchWidth, c.MaxBranchesPerFetch,
		c.IssueWidth, c.ROBSize, c.LSQSize,
		c.CommitWidth,
		c.IntALUs, c.LdStUnits, c.FPAdders,
		c.IntALULat, c.LoadLat, c.IntMultLat, c.IntDivLat, c.FPAddLat, c.FPMultLat, c.FPDivLat,
		c.Branch.HistoryBits, c.Branch.PHTEntries, c.Branch.MispredictPenalty,
		c.ICache.SizeBytes>>10, c.ICache.Assoc, c.ICache.BlockBytes, c.ICache.MissLatency,
		c.DCache.SizeBytes>>10, c.DCache.Assoc, c.DCache.BlockBytes, c.DCache.MissLatency, c.DCache.Ports,
		c.PageSize, c.TLBMissLatency)
}
