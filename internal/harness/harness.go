// Package harness drives the paper's evaluation: it builds workloads,
// runs them on configured machines over every analyzed TLB design, and
// reproduces each table and figure of Section 4 (Table 2's design list,
// Table 3's program characterization, Figure 5's baseline comparison,
// Figure 6's TLB miss rates, Figure 7's in-order issue study, Figure
// 8's 8 KB-page study, and Figure 9's reduced-register study).
//
// The execution layer — caching, scheduling, checkpoints, manifests —
// lives in internal/engine; harness layers the paper's figures and
// tables on top.
package harness

import (
	"hbat/internal/engine"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	Scale       workload.Scale
	Parallelism int
	Seed        uint64
	// FastForward applies RunSpec.FastForward to every timing run of
	// the experiment grids (Figure 6 is purely functional and ignores
	// it). Zero keeps the paper's run-from-reset methodology.
	FastForward uint64
	// Workloads restricts the benchmark set (nil = all ten).
	Workloads []string
	// Designs restricts the design set (nil = Table 2's thirteen).
	Designs []string
	// Engine, when non-nil, supplies the sweep engine: its build cache
	// and RunSpec memo are shared across every experiment driven
	// through it, so regenerating several figures from one process
	// never rebuilds a program or re-simulates a spec. When nil, each
	// experiment call uses a private engine (builds are still shared
	// within the call).
	Engine *engine.Engine
	// Progress, when non-nil, receives per-run completions with wall
	// time and an ETA.
	Progress func(engine.Progress)
}

// engine returns the configured engine or a private one.
func (o *Options) engine() *engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return engine.New()
}

func (o *Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workload.Names()
}

func (o *Options) designs() []string {
	if len(o.Designs) > 0 {
		return o.Designs
	}
	return tlb.DesignOrder
}

func (o *Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}
