// Package engine is the sweep engine layer: it executes RunSpecs with
// singleflight caches of programs, checkpoints and results, persisted
// fast-forward checkpoints, longest-job-first scheduling, and
// provenance manifests. The harness package layers the paper's figures
// and tables on top of it; internal/transport serves it over HTTP
// (cmd/hbatd).
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hbat/internal/ckpt"
	"hbat/internal/cpu"
	"hbat/internal/prog"
	"hbat/internal/ptrace"
	"hbat/internal/runspan"
	"hbat/internal/stats"
	"hbat/internal/workload"
)

// Engine is the sweep engine: it executes RunSpecs with three caches
// and a cancellable, load-ordered scheduler.
//
//   - Three caches with one policy (flight): programs, so a 13-design
//     grid builds each once (they are immutable and shared between
//     machines); fast-forward checkpoints; and results, so a spec that
//     has already run is served from memory (simulations are
//     deterministic) and table3 + fig5 + fig7 + fig8 + fig9 simulate
//     each unique spec once. Concurrent requests for a key share a build.
//   - Cancellation: every entry point takes a context.Context;
//     cancelling it stops dispatching queued specs and interrupts
//     in-flight machines at a cycle-granular check (cpu.SetCancel).
//   - Scheduling: RunAll dispatches grid specs longest-job-first using
//     per-(workload, scale) wall-time estimates learned from completed
//     runs, which cuts the tail latency of a mixed grid, with one run
//     per fast-forward checkpoint ahead of the rest so that workers
//     build different checkpoints instead of waiting on one
//     (dispatchOrder), and reports per-run wall time and a
//     remaining-work ETA through Progress.
//
// The zero value is not usable; create one with New. An Engine is
// safe for concurrent use and is meant to be long-lived: one engine per
// process (or per experiment batch) maximizes reuse.
//
// Result-affecting configuration (the checkpoint directory) is
// immutable once the engine has run: call SetCheckpointDir before the
// first Run/RunAll/PrewarmBuilds call — afterwards it returns
// ErrStarted instead of silently racing the scheduler.
// Observability sinks (logger, span tracer, heartbeat) may be attached
// at any time.
type Engine struct {
	// ckptDir, when non-empty, persists fast-forward checkpoints to
	// disk (one file per (workload, budget, scale, page size, N),
	// named by the key's fingerprint). A later process with the same
	// directory skips the functional warm-up entirely. Corrupt or
	// mismatched files are rebuilt and overwritten, never trusted.
	ckptDir string

	// obsMu guards the observability sinks below. Unlike the checkpoint
	// directory, sinks carry no result-affecting state,
	// so they may be attached or replaced at any time — including
	// mid-sweep; every read goes through Logger/Spans/beat.
	obsMu sync.RWMutex

	// logger, when non-nil, receives structured run-scoped events: one
	// debug record when a simulation starts and one info record when it
	// finishes (or is served from cache), carrying run_id, workload,
	// design, spec_hash, seed, wall_ms, and the cache disposition.
	logger *slog.Logger

	// heartbeatFn, when non-nil, is invoked on every dispatch, on every
	// in-flight machine's progress tick (~1M cycles), and on every run
	// completion — the liveness signal the obs watchdog consumes.
	heartbeatFn func()

	// spans, when non-nil, receives one trace per run (and one per
	// RunAll sweep) with a span per phase: program build, checkpoint
	// load/build, fast-forward, simulate — cache hits
	// and singleflight waits as distinct spans with hit/miss
	// attributes. nil means disabled and costs nothing on the hot path.
	spans *runspan.Tracer

	// started latches on the first Run/RunAll/PrewarmBuilds call and
	// freezes the checkpoint directory above (ErrStarted from then on).
	started atomic.Bool

	progs *flight[progKey, *prog.Program]
	ckpts *flight[ckptKey, *ckpt.Checkpoint]
	memo  *flight[specKey, RunResult]

	mu sync.Mutex
	// ewma holds learned wall-time estimates in seconds, keyed by the
	// spec features that dominate run length.
	ewma map[costKey]float64
	// wallReg holds one wall-time histogram per workload (metric name =
	// the workload), touched only under mu, which is what makes a
	// concurrent /metrics scrape race-free while machines run.
	wallReg *stats.Registry
	// runLog records the last runLogKept requests (executed or
	// cache-served) for the provenance manifest: a ring once full, the
	// oldest record at runsDropped % runLogKept.
	runLog      []RunRecord
	runsDropped uint64

	buildHits   atomic.Uint64
	buildMisses atomic.Uint64
	specHits    atomic.Uint64
	specMisses  atomic.Uint64
	ckptHits    atomic.Uint64
	ckptMisses  atomic.Uint64
	executed    atomic.Uint64
	runSeq      atomic.Uint64

	queued   atomic.Int64
	active   atomic.Int64
	done     atomic.Int64
	draining atomic.Bool
}

// New returns an empty sweep engine.
func New() *Engine {
	return &Engine{
		progs:   newFlight[progKey, *prog.Program](progKept),
		ckpts:   newFlight[ckptKey, *ckpt.Checkpoint](ckptKept),
		memo:    newFlight[specKey, RunResult](memoKept),
		ewma:    make(map[costKey]float64),
		wallReg: stats.NewRegistry(),
	}
}

// wallBuckets are the per-workload wall-time histogram bounds in
// milliseconds: 1 ms .. ~33 s, exponential.
var wallBuckets = stats.ExpBuckets(1, 2, 16)

// SetAccepting marks the engine as accepting (true) or draining
// (false); /ready reflects it. Binaries flip it off once their context
// is cancelled so load balancers stop routing work during shutdown.
func (e *Engine) SetAccepting(ok bool) { e.draining.Store(!ok) }

// Accepting reports whether the engine is accepting new work.
func (e *Engine) Accepting() bool { return !e.draining.Load() }

// heartbeat signals liveness to the watchdog, if one is attached.
func (e *Engine) heartbeat() {
	if fn := e.beat(); fn != nil {
		fn()
	}
}

// A long-lived engine holds a bounded history, constants not options:
// each cache keeps its last finished entries (flight), and the run log
// its last runLogKept records (the manifest counts the dropped ones).
//
//   - progKept: at least the 60 valid program keys (10 workloads × 2
//     budgets × 3 scales), so no program is ever built twice.
//   - ckptKept: at least the 30 checkpoint keys the full report uses at
//     one -ffwd depth (Figures 5 and 7 and Table 3 share 10; Figure 8's
//     pages and Figure 9's registers add 10 each). A full-scale
//     checkpoint is megabytes.
//   - memoKept results, each pinning a ~8 KiB metrics snapshot: the four
//     130-spec design figures and their tables regenerate as hits.
const (
	progKept   = 64
	ckptKept   = 32
	memoKept   = 1024
	runLogKept = 16384
)

// Forget drops spec's finished result from the memo cache (an in-flight
// simulation of it is left alone). A caller that has put the result
// somewhere it will look first — hbatd's artifact store — has no use
// for the engine's copy.
func (e *Engine) Forget(spec RunSpec) { e.memo.forget(spec.key()) }

// specKey is the memoization key: every RunSpec field that affects the
// simulation's outcome. Observation-only fields (Progress and its
// period) are deliberately absent — a cached result is identical with
// or without a heartbeat attached.
type specKey struct {
	workload     string
	design       string
	budget       prog.RegBudget
	scale        workload.Scale
	pageSize     uint64
	inOrder      bool
	seed         uint64
	maxInsts     uint64
	virtualCache bool
	ctxSwitch    uint64
	lockstep     bool
	fastForward  uint64
}

func (s RunSpec) key() specKey {
	return specKey{
		workload:     s.Workload,
		design:       s.Design,
		budget:       s.Budget,
		scale:        s.Scale,
		pageSize:     s.PageSize,
		inOrder:      s.InOrder,
		seed:         s.Seed,
		maxInsts:     s.MaxInsts,
		virtualCache: s.VirtualCache,
		ctxSwitch:    s.ContextSwitchEvery,
		lockstep:     s.Lockstep,
		fastForward:  s.FastForward,
	}
}

// cacheable reports whether a spec's result can be memoized: traced and
// interval-sampled runs carry per-run payloads that are not meaningful
// to share, so they always execute.
func (s RunSpec) cacheable() bool {
	return s.Trace == nil && s.IntervalEvery <= 0
}

// Hash returns a short stable fingerprint of the spec's
// outcome-affecting fields (exactly the memoization key), used to
// correlate log records and manifest entries with results.
func (s RunSpec) Hash() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", s.key())))
	return hex.EncodeToString(sum[:6])
}

// costKey groups specs whose wall times are comparable for scheduling
// estimates. The fast-forward depth is part of it: a 1 % measurement
// window behind a checkpoint and the same workload from reset differ by
// orders of magnitude.
type costKey struct {
	workload    string
	scale       workload.Scale
	budget      prog.RegBudget
	inOrder     bool
	lockstep    bool
	fastForward uint64
}

func (s RunSpec) costKey() costKey {
	return costKey{
		workload: s.Workload, scale: s.Scale, budget: s.Budget,
		inOrder: s.InOrder, lockstep: s.Lockstep, fastForward: s.FastForward,
	}
}

// estimate returns the expected wall time of a spec in seconds: the
// learned average when one exists, otherwise a scale-based default
// (absolute accuracy does not matter — only the relative ordering and
// the ETA use it).
func (e *Engine) estimate(s RunSpec) float64 {
	e.mu.Lock()
	t, ok := e.ewma[s.costKey()]
	e.mu.Unlock()
	if ok {
		return t
	}
	var base float64
	switch s.Scale {
	case workload.ScaleTest:
		base = 1
	case workload.ScaleSmall:
		base = 8
	default:
		base = 40
	}
	if s.Lockstep {
		base *= 2
	}
	return base
}

// observe folds a completed run's own work — its wall time less any
// wait on another run's program or checkpoint build — into the
// estimates.
func (e *Engine) observe(s RunSpec, work time.Duration) {
	sec := work.Seconds()
	k := s.costKey()
	e.mu.Lock()
	if old, ok := e.ewma[k]; ok {
		e.ewma[k] = 0.5*old + 0.5*sec
	} else {
		e.ewma[k] = sec
	}
	e.mu.Unlock()
}

// CacheStats is a point-in-time read of the engine's cache counters.
type CacheStats struct {
	// BuildHits/BuildMisses count workload build requests served from
	// the build cache vs. actually built.
	BuildHits, BuildMisses uint64
	// SpecHits/SpecMisses count simulation requests served from the
	// RunSpec memo vs. actually simulated.
	SpecHits, SpecMisses uint64
	// CkptHits/CkptMisses count fast-forward checkpoint requests served
	// from the checkpoint cache (in-memory or CkptDir) vs. built by
	// running the functional warm-up.
	CkptHits, CkptMisses uint64
}

// CacheStats returns the engine's cache counters.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{
		BuildHits: e.buildHits.Load(), BuildMisses: e.buildMisses.Load(),
		SpecHits: e.specHits.Load(), SpecMisses: e.specMisses.Load(),
		CkptHits: e.ckptHits.Load(), CkptMisses: e.ckptMisses.Load(),
	}
}

// EngineState is a point-in-time read of the engine's live scheduler
// state, exported by the obs server as hbat_sweep_* families.
type EngineState struct {
	// Queued/Active/Done count runs: dispatched-but-waiting, currently
	// simulating, and completed (including cache hits and cancellations).
	Queued, Active, Done int64
	// Executed counts actual simulations (memo misses).
	Executed uint64
	// Accepting is false once SetAccepting(false) marked the engine
	// draining.
	Accepting bool
}

// State returns the engine's live scheduler state.
func (e *Engine) State() EngineState {
	return EngineState{
		Queued:    e.queued.Load(),
		Active:    e.active.Load(),
		Done:      e.done.Load(),
		Executed:  e.executed.Load(),
		Accepting: e.Accepting(),
	}
}

// WallTimes snapshots the per-workload wall-time histograms of executed
// runs. Each metric's Name is the workload; samples are milliseconds.
func (e *Engine) WallTimes() stats.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.wallReg.Snapshot()
}

// RunRecord is one entry of the engine's provenance log: a run request
// and how it was satisfied. The spec hash is the memoization-key
// fingerprint (RunSpec.Hash), so identical entries across sweeps and
// processes are identifiable.
type RunRecord struct {
	RunID    uint64  `json:"run_id"`
	Spec     string  `json:"spec"`
	SpecHash string  `json:"spec_hash"`
	Workload string  `json:"workload"`
	Design   string  `json:"design"`
	Seed     uint64  `json:"seed"`
	WallMs   float64 `json:"wall_ms"`
	Cached   bool    `json:"cached"`
	Error    string  `json:"error,omitempty"`
	// PhaseMs breaks WallMs down by phase (program_build, checkpoint,
	// fast_forward, simulate) when span tracing is enabled; nil
	// otherwise.
	PhaseMs map[string]float64 `json:"phase_ms,omitempty"`
	// TraceID is the cross-process trace id the run executed under
	// (runspan.ContextWithTrace) — the same id the submitting client's
	// spans and the serving transport's access log carry. Empty for
	// runs with no propagated trace context.
	TraceID string `json:"trace_id,omitempty"`
}

// RunLog returns a copy of the engine's provenance log: the most
// recent runLogKept requests in completion order, executed and
// cache-served alike.
func (e *Engine) RunLog() []RunRecord {
	recs, _ := e.runLogSnapshot()
	return recs
}

// runLogSnapshot returns the run log, oldest record first, and how many
// older records it has dropped.
func (e *Engine) runLogSnapshot() ([]RunRecord, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	oldest := int(e.runsDropped % runLogKept)
	recs := make([]RunRecord, 0, len(e.runLog))
	recs = append(recs, e.runLog[oldest:]...)
	return append(recs, e.runLog[:oldest]...), e.runsDropped
}

// record appends a provenance entry and observes an executed run's
// wall time under its workload. Completion doubles as a watchdog
// heartbeat.
func (e *Engine) record(id uint64, spec RunSpec, res *RunResult, cached bool, phases map[string]float64, traceID string) {
	e.heartbeat()
	rec := RunRecord{
		RunID:    id,
		Spec:     spec.String(),
		SpecHash: spec.Hash(),
		Workload: spec.Workload,
		Design:   spec.Design,
		Seed:     spec.Seed,
		WallMs:   float64(res.Wall.Microseconds()) / 1e3,
		Cached:   cached,
		PhaseMs:  phases,
		TraceID:  traceID,
	}
	if res.Err != nil {
		rec.Error = res.Err.Error()
	}
	e.mu.Lock()
	if len(e.runLog) < runLogKept {
		e.runLog = append(e.runLog, rec)
	} else {
		e.runLog[e.runsDropped%runLogKept] = rec
		e.runsDropped++
	}
	if !cached && res.Err == nil {
		e.wallReg.Histogram(spec.Workload, wallBuckets).Observe(res.Wall.Milliseconds())
	}
	e.mu.Unlock()
}

// runLogger returns the run-scoped logger (nil when logging is off).
func (e *Engine) runLogger(id uint64, spec RunSpec) *slog.Logger {
	lg := e.Logger()
	if lg == nil {
		return nil
	}
	return lg.With(
		"run_id", id,
		"workload", spec.Workload,
		"design", spec.Design,
		"spec_hash", spec.Hash(),
		"seed", spec.Seed,
	)
}

// progKey identifies one built program: the three inputs that change
// generated code.
type progKey struct {
	workload string
	budget   prog.RegBudget
	scale    workload.Scale
}

// program resolves spec's program through the build cache; an unknown
// workload fails before it reaches the cache. wait is the flight wait
// hook, and hit reports that another call built the program.
func (e *Engine) program(ctx context.Context, spec RunSpec, wait func() func()) (p *prog.Program, hit bool, err error) {
	w, err := workload.ByName(spec.Workload)
	if err != nil {
		return nil, false, err
	}
	p, err, hit = e.progs.do(ctx, progKey{spec.Workload, spec.Budget, spec.Scale}, func() (*prog.Program, error) {
		e.buildMisses.Add(1)
		return w.Build(spec.Budget, spec.Scale)
	}, wait)
	if hit {
		e.buildHits.Add(1)
	}
	return p, hit, err
}

// buildProgram resolves a spec's program through the build cache.
func (e *Engine) buildProgram(spec RunSpec) (*prog.Program, error) {
	p, _, err := e.program(context.Background(), spec, nil)
	return p, err
}

// waitHook is the flight wait hook of a run's phase span sp: each block
// on another run's build is a singleflight_wait span under sp, open
// while the run waits (so /debug/spans shows a stuck build as a
// growing age), and its duration is added to *waited.
func (e *Engine) waitHook(sp *runspan.Span, waited *time.Duration) func() func() {
	return func() func() {
		wsp := e.Spans().Start(sp.Trace(), sp, "singleflight_wait")
		blocked := time.Now()
		return func() {
			*waited += time.Since(blocked)
			wsp.End()
		}
	}
}

// PrewarmBuilds builds every unique program named by specs into the
// engine's build cache, so a timed pass over the same specs measures
// simulation alone rather than program generation.
func (e *Engine) PrewarmBuilds(ctx context.Context, specs []RunSpec) error {
	e.start()
	for _, s := range specs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := e.buildProgram(s); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one simulation, serving it from the memo cache when an
// identical spec already ran. A cancelled ctx returns promptly with
// RunResult.Err set to ctx.Err().
func (e *Engine) Run(ctx context.Context, spec RunSpec) RunResult {
	e.start()
	defer e.done.Add(1)
	if err := ctx.Err(); err != nil {
		return RunResult{Spec: spec, Err: err}
	}
	e.heartbeat()
	if !spec.cacheable() {
		return e.execute(ctx, spec)
	}
	waitMark := e.Spans().Now()
	res, err, hit := e.memo.do(ctx, spec.key(), func() (RunResult, error) {
		res := e.execute(ctx, spec)
		if !isCancelErr(res.Err) {
			e.specMisses.Add(1)
		}
		return res, res.Err
	}, nil)
	if !hit {
		res.Spec, res.Err = spec, err // a waiter whose ctx ended has only err
		return res
	}
	e.specHits.Add(1)
	res.Spec = spec
	res.Cached = true
	res.Wall = 0
	id := e.runSeq.Add(1)
	tc, hasTC := runspan.TraceFromContext(ctx)
	if tr := e.Spans(); tr.Enabled() {
		// Memo hits get a minimal trace of their own: a root span
		// covering the (usually zero) wait on the producer, so hit
		// traffic is visible on the timeline next to real runs.
		rt := tr.NewTrace()
		if hasTC {
			rt = tr.NewTraceWith(tc.TraceID, runspan.NewSpanID(), tc.SpanID)
		}
		hroot := tr.StartAt(rt, nil, "run", waitMark).
			SetAttr("workload", spec.Workload).
			SetAttr("design", spec.Design).
			SetAttr("spec_hash", spec.Hash()).
			SetAttr("run_id", strconv.FormatUint(id, 10)).
			SetAttr("cache", "hit")
		tr.StartAt(rt, hroot, "memo_wait", waitMark).End()
		hroot.End()
	}
	e.record(id, spec, &res, true, nil, tc.TraceID)
	if lg := e.runLogger(id, spec); lg != nil {
		if hasTC {
			lg = lg.With("trace_id", tc.TraceID)
		}
		lg.Info("run finished", "wall_ms", 0.0, "cache", "hit")
	}
	return res
}

// errPanicked is a run's error while it has not returned; see execute.
var errPanicked = errors.New("engine: run panicked")

func isCancelErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// execute performs the simulation (no memoization), recording wall time
// and updating scheduling estimates.
func (e *Engine) execute(ctx context.Context, spec RunSpec) RunResult {
	start := time.Now()
	id := e.runSeq.Add(1)
	lg := e.runLogger(id, spec)
	tr := e.Spans()
	tc, hasTC := runspan.TraceFromContext(ctx)
	var (
		rt     runspan.TraceID
		root   *runspan.Span
		phases map[string]float64
	)
	if tr.Enabled() {
		if hasTC {
			// A propagated trace context (a remote submitter, or the
			// fabric service's per-job span) parents this run's root
			// under the caller's span and stamps the shared trace id.
			rt = tr.NewTraceWith(tc.TraceID, runspan.NewSpanID(), tc.SpanID)
		} else {
			rt = tr.NewTrace()
		}
		root = tr.Start(rt, nil, "run").
			SetAttr("workload", spec.Workload).
			SetAttr("design", spec.Design).
			SetAttr("spec_hash", spec.Hash()).
			SetAttr("run_id", strconv.FormatUint(id, 10))
		phases = make(map[string]float64, 4)
		if lg != nil {
			if hasTC {
				lg = lg.With("trace_id", tc.TraceID, "span_id", root.ID())
			} else {
				lg = lg.With("trace_id", uint64(rt), "span_id", root.ID())
			}
		}
	} else if hasTC && lg != nil {
		lg = lg.With("trace_id", tc.TraceID)
	}
	// endPhase closes a phase span and folds its wall time into the
	// manifest's per-phase breakdown. Nil-safe (disabled tracer).
	endPhase := func(sp *runspan.Span, name string) {
		if sp != nil {
			phases[name] = sp.End().Seconds() * 1e3
		}
	}
	if lg != nil {
		lg.Debug("run start")
	}
	e.active.Add(1)
	defer e.active.Add(-1)
	// Err stays errPanicked only if the run panics (every return sets
	// it), so a panicking run is recorded, spanned and logged as failed
	// on its way to the caller that recovers it.
	res := RunResult{Spec: spec, Err: errPanicked}
	defer func() {
		if root != nil {
			if res.Err != nil {
				root.SetAttr("error", res.Err.Error())
			}
			root.End()
		}
		e.record(id, spec, &res, false, phases, tc.TraceID)
		if lg != nil {
			switch {
			case res.Err != nil:
				lg.Warn("run failed", "wall_ms", float64(res.Wall.Microseconds())/1e3, "error", res.Err.Error())
			default:
				lg.Info("run finished", "wall_ms", float64(res.Wall.Microseconds())/1e3, "cache", "miss")
			}
		}
	}()
	// waited is time blocked on other runs' program and checkpoint
	// builds: not this run's work, so the cost model leaves it out.
	var waited time.Duration
	bsp := tr.Start(rt, root, "program_build")
	p, hit, err := e.program(ctx, spec, e.waitHook(bsp, &waited))
	if hit {
		bsp.SetAttr("cache", "hit")
	} else {
		bsp.SetAttr("cache", "miss")
	}
	endPhase(bsp, "program_build")
	if err != nil {
		res.Err = err
		return res
	}
	cfg := cpu.DefaultConfig()
	cfg.PageSize = spec.PageSize
	cfg.InOrder = spec.InOrder
	cfg.MaxInsts = spec.MaxInsts
	cfg.VirtualCache = spec.VirtualCache
	cfg.FlushTLBEvery = spec.ContextSwitchEvery
	cfg.Lockstep = spec.Lockstep
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if spec.FastForward > 0 {
		// One warmed checkpoint per (workload, budget, scale, page
		// size, N) serves every design in the grid; the machine then
		// restores it instead of re-running the functional phase.
		csp := tr.Start(rt, root, "checkpoint")
		c, cerr := e.checkpoint(ctx, spec, p, cfg, csp, &waited)
		endPhase(csp, "checkpoint")
		if cerr != nil {
			if isCancelErr(cerr) {
				res.Err = cerr
			} else {
				res.Err = fmt.Errorf("%s: checkpoint: %w", spec, cerr)
			}
			return res
		}
		cfg.FastForward = spec.FastForward
		cfg.Checkpoint = c
	}
	m, err := cpu.NewWithDesign(p, cfg, spec.Design)
	if err != nil {
		res.Err = err
		return res
	}
	m.SetCancel(ctx)
	if spec.Trace != nil {
		m.SetTracer(ptrace.New(*spec.Trace))
	}
	if spec.IntervalEvery > 0 {
		m.EnableIntervalSampling(spec.IntervalEvery)
	}
	if beat := e.beat(); spec.Progress != nil || beat != nil {
		every := spec.ProgressEvery
		if every <= 0 {
			every = 1 << 20
		}
		user := spec.Progress
		m.SetProgress(every, func(cycle int64, committed uint64) {
			if beat != nil {
				beat()
			}
			if user != nil {
				user(cycle, committed)
			}
		})
	}
	if spec.FastForward > 0 {
		// Run would fast-forward implicitly; doing it explicitly here
		// separates warm-up time from cycle-simulation time.
		fsp := tr.Start(rt, root, "fast_forward")
		m.FastForward()
		endPhase(fsp, "fast_forward")
	}
	ssp := tr.Start(rt, root, "simulate")
	err = m.Run()
	if ssp != nil {
		ssp.SetAttr("committed", strconv.FormatUint(m.Stats().Committed, 10))
	}
	res.Stats = *m.Stats()
	res.TLB = *m.DTLB.Stats()
	res.Observed = m.Observed()
	res.Trace = m.Tracer()
	res.Intervals = m.Intervals()
	// res holds copies of everything it reads from m, so the next New
	// may start from this machine.
	m.Release()
	res.Wall = time.Since(start)
	e.executed.Add(1)
	res.Err = nil
	switch {
	case isCancelErr(err):
		res.Err = err // the bare ctx error, per the sweep contract
	case err != nil:
		res.Err = fmt.Errorf("%s: %w", spec, err)
	default:
		e.observe(spec, res.Wall-waited)
	}
	if ssp != nil {
		endPhase(ssp, "simulate")
		if res.Trace != nil {
			// Merge this run's micro pipeline events under its macro
			// simulate span on the exported timeline.
			tr.AttachMicro(ssp, spec.String(), res.Trace)
		}
	}
	return res
}

// Progress is one scheduler update, delivered after each completed (or
// cancelled) run.
type Progress struct {
	// Done runs have finished out of Total.
	Done, Total int
	// Result is the run that just finished; Result.Wall is its wall
	// time and Result.Cached reports a memo hit.
	Result *RunResult
	// Elapsed is wall time since the sweep started; ETA estimates the
	// remaining wall time from the per-spec cost model (zero until the
	// first run completes).
	Elapsed, ETA time.Duration
}

// dispatchOrder returns the order in which RunAll hands specs to its
// workers, as indices into specs: longest-estimated-job-first (stable,
// so equal-cost specs keep grid order), with the first fast-forwarding
// spec of every distinct checkpoint moved ahead of everything else.
// Those leaders are the runs that build the checkpoints. A grid lists
// one workload's designs side by side, so without the second rule
// concurrent workers pick up specs that share a checkpoint and all but
// one of them sleep on the singleflight while the others' checkpoints
// wait unbuilt; with it, workers build different checkpoints at once
// and every follower finds its checkpoint in memory.
func dispatchOrder(specs []RunSpec, cost []float64) []int {
	ljf := make([]int, len(specs))
	for i := range ljf {
		ljf[i] = i
	}
	sort.SliceStable(ljf, func(a, b int) bool { return cost[ljf[a]] > cost[ljf[b]] })
	order := make([]int, 0, len(specs))
	var followers []int
	seen := make(map[ckptKey]bool)
	for _, i := range ljf {
		if k := specs[i].ckptKey(); k.ffwd > 0 && !seen[k] {
			seen[k] = true
			order = append(order, i)
		} else {
			followers = append(followers, i)
		}
	}
	return append(order, followers...)
}

// RunAll executes specs with bounded parallelism (0 = GOMAXPROCS),
// dispatching in dispatchOrder — longest-estimated-job-first, checkpoint
// builders ahead — to minimize tail latency.
// Results are returned in spec order regardless of dispatch order.
// When ctx is cancelled, queued specs are not dispatched, in-flight
// machines are interrupted, every unfinished result carries ctx.Err(),
// and RunAll returns ctx.Err().
func (e *Engine) RunAll(ctx context.Context, specs []RunSpec, parallelism int, progress func(Progress)) ([]RunResult, error) {
	e.start()
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(specs) {
		parallelism = len(specs)
	}
	results := make([]RunResult, len(specs))

	cost := make([]float64, len(specs))
	var totalCost float64
	for i, s := range specs {
		cost[i] = e.estimate(s)
		totalCost += cost[i]
	}
	order := dispatchOrder(specs, cost)

	start := time.Now()
	e.queued.Add(int64(len(specs)))
	if lg := e.Logger(); lg != nil {
		lg.Info("sweep start", "runs", len(specs), "parallelism", parallelism)
	}
	tr := e.Spans()
	var (
		sweepTrace runspan.TraceID
		sweepSpan  *runspan.Span
	)
	sweepMark := tr.Now()
	if tr.Enabled() {
		sweepTrace = tr.NewTrace()
		sweepSpan = tr.Start(sweepTrace, nil, "sweep").
			SetAttr("runs", strconv.Itoa(len(specs))).
			SetAttr("parallelism", strconv.Itoa(parallelism))
	}
	var (
		mu       sync.Mutex
		done     int
		doneCost float64
		wg       sync.WaitGroup
		next     atomic.Int64
	)
	worker := func() {
		defer wg.Done()
		for {
			n := int(next.Add(1)) - 1
			if n >= len(order) {
				return
			}
			i := order[n]
			e.queued.Add(-1)
			if tr.Enabled() {
				// The scheduling gap: how long this spec sat queued
				// (sweep start to dispatch) before a worker picked it up.
				tr.StartAt(sweepTrace, sweepSpan, "sched_gap", sweepMark).
					SetAttr("spec", specs[i].String()).End()
			}
			if err := ctx.Err(); err != nil {
				// Cancelled: stop dispatching; mark without running.
				results[i] = RunResult{Spec: specs[i], Err: err}
				e.done.Add(1)
			} else {
				results[i] = e.Run(ctx, specs[i])
			}
			mu.Lock()
			done++
			doneCost += cost[i]
			elapsed := time.Since(start)
			var eta time.Duration
			if doneCost > 0 && done < len(specs) {
				eta = time.Duration(float64(elapsed) * (totalCost - doneCost) / doneCost)
			}
			if progress != nil {
				progress(Progress{Done: done, Total: len(specs), Result: &results[i], Elapsed: elapsed, ETA: eta})
			}
			mu.Unlock()
		}
	}
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go worker()
	}
	wg.Wait()
	if sweepSpan != nil {
		if ctx.Err() != nil {
			sweepSpan.SetAttr("cancelled", "true")
		}
		sweepSpan.End()
	}
	if lg := e.Logger(); lg != nil {
		lg.Info("sweep done", "runs", len(specs),
			"elapsed_ms", float64(time.Since(start).Microseconds())/1e3,
			"cancelled", ctx.Err() != nil)
	}
	return results, ctx.Err()
}
