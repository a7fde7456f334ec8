package harness

import (
	"context"
	"fmt"
	"time"

	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/engine"
	"hbat/internal/prog"
	"hbat/internal/tlb"
)

// FigureResult holds one design-comparison experiment (Figures 5, 7, 8,
// and 9 all share this shape): per-design, per-workload IPCs plus the
// run-time weighted average normalized to the four-ported TLB (T4),
// exactly as the paper reports.
type FigureResult struct {
	Name      string
	Caption   string
	Designs   []string
	Workloads []string

	// IPC[design][workload].
	IPC map[string]map[string]float64
	// T4Cycles[workload] weights the averages (paper: run-time
	// weighted by the T4 run time in cycles).
	T4Cycles map[string]int64
	// Runs holds every underlying result for drill-down reports.
	Runs map[string]map[string]*engine.RunResult
}

// NormalizedAvg returns the run-time weighted average IPC of design,
// normalized to T4 (the paper's headline metric).
func (f *FigureResult) NormalizedAvg(design string) float64 {
	var num, den float64
	for _, w := range f.Workloads {
		weight := float64(f.T4Cycles[w])
		t4 := f.IPC["T4"][w]
		if t4 == 0 {
			continue
		}
		num += weight * f.IPC[design][w] / t4
		den += weight
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Normalized returns design's IPC on workload w relative to T4.
func (f *FigureResult) Normalized(design, w string) float64 {
	if f.IPC["T4"][w] == 0 {
		return 0
	}
	return f.IPC[design][w] / f.IPC["T4"][w]
}

// WeightedAvgIPC returns the run-time weighted average absolute IPC.
func (f *FigureResult) WeightedAvgIPC(design string) float64 {
	var num, den float64
	for _, w := range f.Workloads {
		weight := float64(f.T4Cycles[w])
		num += weight * f.IPC[design][w]
		den += weight
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// designFigure runs the full design × workload grid for one machine
// variation.
func designFigure(ctx context.Context, name, caption string, opts Options, pageSize uint64, inOrder bool, budget prog.RegBudget) (*FigureResult, error) {
	designs := opts.designs()
	wls := opts.workloads()

	var specs []engine.RunSpec
	for _, d := range designs {
		for _, w := range wls {
			specs = append(specs, engine.RunSpec{
				Workload: w, Design: d, Budget: budget, Scale: opts.Scale,
				PageSize: pageSize, InOrder: inOrder, Seed: opts.seed(),
				FastForward: opts.FastForward,
			})
		}
	}
	results, err := opts.engine().RunAll(ctx, specs, opts.Parallelism, opts.Progress)
	if err != nil {
		return nil, err
	}

	f := &FigureResult{
		Name: name, Caption: caption,
		Designs: designs, Workloads: wls,
		IPC:      make(map[string]map[string]float64),
		T4Cycles: make(map[string]int64),
		Runs:     make(map[string]map[string]*engine.RunResult),
	}
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			return nil, r.Err
		}
		d, w := r.Spec.Design, r.Spec.Workload
		if f.IPC[d] == nil {
			f.IPC[d] = make(map[string]float64)
			f.Runs[d] = make(map[string]*engine.RunResult)
		}
		f.IPC[d][w] = r.Stats.IPC()
		f.Runs[d][w] = r
		if d == "T4" {
			f.T4Cycles[w] = r.Stats.Cycles
		}
	}
	if _, ok := f.IPC["T4"]; !ok {
		return nil, fmt.Errorf("harness: %s requires design T4 for normalization", name)
	}
	return f, nil
}

// Figure5 reproduces the paper's Figure 5: relative performance of all
// analyzed designs on the baseline 8-way out-of-order processor with
// 4 KB pages and 32/32 registers.
func Figure5(ctx context.Context, opts Options) (*FigureResult, error) {
	return designFigure(ctx, "fig5",
		"Relative Performance on Baseline Simulator (8-way OoO, 4k pages, 32 int/32 fp regs)",
		opts, 4096, false, prog.Budget32)
}

// Figure7 reproduces Figure 7: the same grid with in-order issue.
func Figure7(ctx context.Context, opts Options) (*FigureResult, error) {
	return designFigure(ctx, "fig7",
		"Relative Performance with In-order Issue (8-way, 4k pages, 32 int/32 fp regs)",
		opts, 4096, true, prog.Budget32)
}

// Figure8 reproduces Figure 8: the baseline grid with 8 KB pages.
func Figure8(ctx context.Context, opts Options) (*FigureResult, error) {
	return designFigure(ctx, "fig8",
		"Relative Performance with 8k Pages (8-way OoO, 32 int/32 fp regs)",
		opts, 8192, false, prog.Budget32)
}

// Figure9 reproduces Figure 9: the baseline grid with programs
// recompiled for 8 integer and 8 floating-point registers.
func Figure9(ctx context.Context, opts Options) (*FigureResult, error) {
	return designFigure(ctx, "fig9",
		"Relative Performance with Fewer Registers (8 int/8 fp, 8-way OoO, 4k pages)",
		opts, 4096, false, prog.Budget8)
}

// Table3Row is one workload's baseline characterization (Table 3).
type Table3Row struct {
	Workload   string
	Insts      uint64
	Loads      uint64
	Stores     uint64
	IssueIPC   float64
	CommitIPC  float64
	IssueMem   float64
	CommitMem  float64
	BranchRate float64
}

// Table3 reproduces the paper's Table 3: program execution performance
// on the baseline 8-way out-of-order processor with a four-ported TLB.
func Table3(ctx context.Context, opts Options) ([]Table3Row, error) {
	wls := opts.workloads()
	specs := make([]engine.RunSpec, len(wls))
	for i, w := range wls {
		specs[i] = engine.RunSpec{
			Workload: w, Design: "T4", Budget: prog.Budget32,
			Scale: opts.Scale, PageSize: 4096, Seed: opts.seed(),
			FastForward: opts.FastForward,
		}
	}
	results, err := opts.engine().RunAll(ctx, specs, opts.Parallelism, opts.Progress)
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		s := r.Stats
		rows = append(rows, Table3Row{
			Workload:   r.Spec.Workload,
			Insts:      s.Committed,
			Loads:      s.CommittedLoads,
			Stores:     s.CommittedStores,
			IssueIPC:   s.IssueIPC(),
			CommitIPC:  s.IPC(),
			IssueMem:   s.IssuedMemPerCycle(),
			CommitMem:  s.MemPerCycle(),
			BranchRate: s.BranchRate(),
		})
	}
	return rows, nil
}

// Figure6Sizes are the fully-associative TLB sizes of Figure 6.
var Figure6Sizes = []int{4, 8, 16, 32, 64, 128}

// Figure6Result holds the TLB miss-rate study.
type Figure6Result struct {
	Sizes     []int
	Workloads []string
	// MissRate[workload][size].
	MissRate map[string]map[int]float64
	// Weights for the run-time weighted average row.
	Weights map[string]float64
}

// RTWAvg returns the run-time weighted average miss rate at a size.
func (f *Figure6Result) RTWAvg(size int) float64 {
	var num, den float64
	for _, w := range f.Workloads {
		num += f.Weights[w] * f.MissRate[w][size]
		den += f.Weights[w]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// fig6Warmer feeds every data reference of a run to Figure 6's TLB
// models, one per size.
type fig6Warmer struct {
	pageBits uint
	sims     []*tlb.MissRateSim
}

func (fw *fig6Warmer) Block(*sblock.BlockExec) {}

func (fw *fig6Warmer) Ref(vaddr, _ uint64, _ bool, _ uint64) {
	for _, s := range fw.sims {
		s.Ref(vaddr >> fw.pageBits)
	}
}

// Figure6 reproduces the paper's Figure 6: data-reference miss rates of
// fully-associative TLBs from 4 to 128 entries (LRU replacement up to
// 16 entries, random above — the policies the corresponding timing
// structures use). Each workload's reference stream is generated once
// by a warm run of the translated engine (sblock.Engine.Warm; every
// data reference in program order) and fed to all six sizes. weights
// gives the run-time weighting (e.g. T4 cycles from Figure 5); if nil,
// committed instruction counts are used.
func Figure6(ctx context.Context, opts Options, weights map[string]float64) (*Figure6Result, error) {
	wls := opts.workloads()
	eng := opts.engine()
	f := &Figure6Result{
		Sizes:     Figure6Sizes,
		Workloads: wls,
		MissRate:  make(map[string]map[int]float64),
		Weights:   make(map[string]float64),
	}
	// Functional simulation is cheap: run the workloads one after
	// another, each feeding all six TLB models in one pass.
	start := time.Now()
	for i, name := range wls {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := eng.BuildProgram(engine.RunSpec{Workload: name, Budget: prog.Budget32, Scale: opts.Scale})
		if err != nil {
			return nil, err
		}
		m, err := emu.New(p, 4096)
		if err != nil {
			return nil, err
		}
		fw := fig6Warmer{pageBits: m.AS.PageBits()}
		for _, size := range Figure6Sizes {
			fw.sims = append(fw.sims, tlb.NewMissRateSim(size, tlb.ReplacementFor(size), opts.seed()))
		}
		se := sblock.New(m)
		se.SetCancel(ctx)
		if err := se.Warm(0, &fw); err != nil {
			return nil, fmt.Errorf("figure6 %s: %w", name, err)
		}
		mr := make(map[int]float64, len(Figure6Sizes))
		for j, size := range Figure6Sizes {
			mr[size] = fw.sims[j].MissRate()
		}
		f.MissRate[name] = mr
		f.Weights[name] = float64(m.InstCount)
		if w, ok := weights[name]; ok {
			f.Weights[name] = w
		}
		if opts.Progress != nil {
			opts.Progress(engine.Progress{
				Done: i + 1, Total: len(wls),
				Result:  &engine.RunResult{Spec: engine.RunSpec{Workload: name}},
				Elapsed: time.Since(start),
			})
		}
	}
	return f, nil
}
