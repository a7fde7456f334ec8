package engine

import (
	"fmt"
	"time"

	"hbat/internal/cpu"
	"hbat/internal/prog"
	"hbat/internal/ptrace"
	"hbat/internal/stats"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// RunSpec names one simulation: a workload on one machine configuration
// with one translation design.
type RunSpec struct {
	Workload string
	Design   string
	Budget   prog.RegBudget
	Scale    workload.Scale
	PageSize uint64
	InOrder  bool
	Seed     uint64
	MaxInsts uint64 // optional commit cap (0 = run to Halt)

	// FastForward, when positive, executes the first N instructions on
	// the functional emulator (warming TLB, cache, and predictor state)
	// and measures only the remainder cycle-accurately — the two-phase
	// methodology (cpu.Config.FastForward). An Engine builds one warmed
	// checkpoint per (workload, budget, scale, page size, N) and shares
	// it across every design in a grid; N must be smaller than the
	// workload's functional instruction count.
	FastForward uint64

	// Extensions beyond the paper's grid.
	VirtualCache       bool
	ContextSwitchEvery uint64

	// Lockstep turns on the golden-model differential checker
	// (cpu.Config.Lockstep): any architected-state divergence surfaces
	// as the run's Err instead of silently skewing the statistics.
	Lockstep bool

	// Trace, when non-nil, records pipeline events into a ring buffer
	// returned as RunResult.Trace (see internal/ptrace).
	Trace *ptrace.Config
	// IntervalEvery, when positive, samples interval time-series rows
	// every N cycles into RunResult.Intervals.
	IntervalEvery int64
	// Progress, when non-nil, is called every ProgressEvery cycles
	// (default 1<<20) with the live cycle and committed-instruction
	// counts — the -progress heartbeat.
	Progress      func(cycle int64, committed uint64)
	ProgressEvery int64
}

func (s RunSpec) String() string {
	mode := "ooo"
	if s.InOrder {
		mode = "inorder"
	}
	return fmt.Sprintf("%s/%s/%s/%dk-pages/%s", s.Workload, s.Design, mode, s.PageSize/1024, s.Budget)
}

// RunResult is one simulation's outcome.
type RunResult struct {
	Spec  RunSpec
	Stats cpu.Stats
	TLB   tlb.Stats
	// Observed holds what the run counted live beyond Stats and TLB;
	// Metrics renders the full metrics export from the three.
	Observed cpu.Observed
	Err      error

	// Wall is the run's wall-clock time (zero for memo-cache hits).
	Wall time.Duration
	// Cached reports the result was served from an Engine's RunSpec
	// memoization cache instead of being simulated.
	Cached bool

	// Trace holds the recorded pipeline events when Spec.Trace was set.
	Trace *ptrace.Recorder
	// Intervals holds the sampled time series when Spec.IntervalEvery
	// was positive.
	Intervals *stats.IntervalSeries
}

// Metrics renders the run's metrics export: queue-depth and
// translation-latency distributions, replay and squash counts,
// per-cause stall cycles and the aggregate counters, sorted by name.
// It allocates the export on each call; nothing in a sweep calls it.
func (r *RunResult) Metrics() stats.Snapshot {
	return cpu.RenderMetrics(&r.Stats, &r.TLB, &r.Observed)
}
