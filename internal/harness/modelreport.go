package harness

import (
	"context"
	"fmt"
	"io"

	"hbat/internal/cpu"
	"hbat/internal/model"
)

// ModelRow is the Section 2 model fitted to one design, run-time
// weighted across the workloads.
type ModelRow struct {
	Design    string
	FShielded float64
	TStalled  float64
	TTLBHit   float64
	MTLB      float64
	TAT       float64
	TPIUntol  float64
	TPIMeas   float64
	FTol      float64
	RelIPC    float64
}

// ModelStudy fits the paper's Section 2 address-translation performance
// model to every design over the workload set, from Figure 5's runs
// (the engine's memo serves them when Figure 5 already ran): each
// design's runs are compared to the T4 baseline, and the fitted
// quantities are run-time weighted the same way the figures are.
func ModelStudy(ctx context.Context, opts Options) ([]ModelRow, error) {
	f, err := Figure5(ctx, opts)
	if err != nil {
		return nil, err
	}
	walk := float64(cpu.DefaultConfig().TLBMissLatency)
	rows := make([]ModelRow, 0, len(f.Designs))
	for _, d := range f.Designs {
		row := ModelRow{Design: d}
		var totalWeight float64
		for _, w := range f.Workloads {
			base, dev := f.Runs["T4"][w], f.Runs[d][w]
			rep := model.Analyze(d, w,
				model.RunStats{CPU: base.Stats, TLB: base.TLB},
				model.RunStats{CPU: dev.Stats, TLB: dev.TLB}, walk)
			weight := float64(base.Stats.Cycles)
			totalWeight += weight
			row.FShielded += weight * rep.FShielded
			row.TStalled += weight * rep.TStalled
			row.TTLBHit += weight * rep.TTLBHit
			row.MTLB += weight * rep.MTLB
			row.TAT += weight * rep.TAT
			row.TPIUntol += weight * rep.TPIUntol
			row.TPIMeas += weight * rep.TPIMeasured
			row.FTol += weight * rep.FTol
			row.RelIPC += weight * rep.RelativeIPC
		}
		if totalWeight > 0 {
			row.FShielded /= totalWeight
			row.TStalled /= totalWeight
			row.TTLBHit /= totalWeight
			row.MTLB /= totalWeight
			row.TAT /= totalWeight
			row.TPIUntol /= totalWeight
			row.TPIMeas /= totalWeight
			row.FTol /= totalWeight
			row.RelIPC /= totalWeight
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderModelStudy writes the fitted-model table.
func RenderModelStudy(w io.Writer, rows []ModelRow) {
	fmt.Fprintln(w, "Section 2 model, fitted per design (run-time weighted averages; T4 is the baseline)")
	fmt.Fprintf(w, "%-7s %10s %10s %10s %8s %8s %10s %10s %7s %8s\n",
		"design", "f_shield", "t_stalled", "t_TLBhit+", "M_TLB", "t_AT", "TPI-untol", "TPI-meas", "f_TOL", "IPC/T4")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7s %10.4f %10.4f %10.4f %8.4f %8.4f %10.4f %10.4f %7.3f %8.4f\n",
			r.Design, r.FShielded, r.TStalled, r.TTLBHit, r.MTLB, r.TAT,
			r.TPIUntol, r.TPIMeas, r.FTol, r.RelIPC)
	}
}
