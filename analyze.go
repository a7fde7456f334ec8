package hbat

import (
	"context"
	"fmt"
	"io"

	"hbat/internal/cpu"
	"hbat/internal/model"
)

// ModelReport is the paper's Section 2 performance model fitted to a
// measured run (see internal/model): the average translation latency
// t_AT decomposed into shielding, port queueing, and miss components,
// plus the inferred latency tolerance f_TOL of the core.
type ModelReport = model.Report

// Analysis is Analyze's result: the fitted Section 2 model plus the
// analyzed run's full metrics snapshot (cpu.RenderMetrics's export with
// queue-depth and translation-latency distributions, replay and squash
// counts, and stall causes).
type Analysis struct {
	ModelReport
	Metrics MetricsSnapshot
}

// Analyze runs the requested simulation and a four-ported-TLB baseline
// of the same program, then fits the paper's Section 2 model: how much
// translation latency the design exposes (t_AT), how much of it the
// core tolerates (f_TOL), and the resulting time-per-instruction cost.
// Both the design run and the T4 baseline stop promptly once ctx is
// cancelled. The baseline is memoized process-wide, so analyzing
// several designs of one workload simulates the T4 reference once.
func Analyze(ctx context.Context, o Options) (*Analysis, error) {
	spec, err := o.spec()
	if err != nil {
		return nil, err
	}
	dev := defaultEngine.Run(ctx, spec)
	if dev.Err != nil {
		return nil, dev.Err
	}
	baseSpec := spec
	baseSpec.Design = "T4"
	base := defaultEngine.Run(ctx, baseSpec)
	if base.Err != nil {
		return nil, base.Err
	}
	rep := model.Analyze(spec.Design, spec.Workload,
		model.RunStats{CPU: base.Stats, TLB: base.TLB},
		model.RunStats{CPU: dev.Stats, TLB: dev.TLB},
		float64(cpu.DefaultConfig().TLBMissLatency))
	return &Analysis{ModelReport: rep, Metrics: dev.Metrics()}, nil
}

// RenderAnalysis writes a fitted model report in the paper's notation,
// followed by the analyzed run's metrics export.
func RenderAnalysis(w io.Writer, a *Analysis) {
	a.Render(w)
	if len(a.Metrics) == 0 {
		return
	}
	fmt.Fprintf(w, "\nRun metrics (%s on %s):\n", a.Design, a.Workload)
	for _, m := range a.Metrics {
		switch m.Kind {
		case "counter":
			fmt.Fprintf(w, "  %-34s %12d\n", m.Name, m.Value)
		default:
			fmt.Fprintf(w, "  %-34s n=%d mean=%.2f max=%d\n", m.Name, m.Count, m.Mean, m.Max)
		}
	}
}
