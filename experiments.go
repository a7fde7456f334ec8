package hbat

import (
	"context"
	"fmt"
	"io"
	"time"

	"hbat/internal/harness"
	"hbat/internal/report"
	"hbat/internal/spans"
)

// renderSpan opens a "render" span (its own trace — rendering is
// per-artifact, not per-run) on the options' engine tracer. Returns
// nil, accepted by Span.End, when tracing is off.
func renderSpan(ho harness.Options, artifact string) *spans.Span {
	if ho.Engine == nil || !ho.Engine.Spans().Enabled() {
		return nil
	}
	tr := ho.Engine.Spans()
	return tr.Start(tr.NewTrace(), nil, "render").SetAttr("artifact", artifact)
}

// experiment is one registered evaluation artifact: how to run it as a
// text report and, when it is a design-grid figure, how to produce the
// underlying FigureResult for CSV export.
type experiment struct {
	name string
	// run writes the experiment's text report.
	run func(ctx context.Context, ho harness.Options, w io.Writer) error
	// figure, when non-nil, marks the experiment CSV-capable and
	// produces the grid the CSV is derived from.
	figure func(ctx context.Context, ho harness.Options) (*harness.FigureResult, error)
}

// experiments is the registry, in the paper's presentation order.
// RunExperiment, ExperimentCSV, ExperimentNames, and
// CSVExperimentNames are all derived from it; registering a new
// experiment here is the only step needed to expose it everywhere.
var experiments = []experiment{
	{
		name: "table2",
		run: func(_ context.Context, ho harness.Options, w io.Writer) error {
			sp := renderSpan(ho, "table2")
			harness.RenderTable2(w)
			sp.End()
			return nil
		},
	},
	{
		name: "table3",
		run: func(ctx context.Context, ho harness.Options, w io.Writer) error {
			rows, err := harness.Table3(ctx, ho)
			if err != nil {
				return err
			}
			sp := renderSpan(ho, "table3")
			harness.RenderTable3(w, rows)
			sp.End()
			return nil
		},
	},
	{name: "fig5", figure: harness.Figure5},
	{
		name: "fig6",
		run: func(ctx context.Context, ho harness.Options, w io.Writer) error {
			f, err := harness.Figure6(ctx, ho, nil)
			if err != nil {
				return err
			}
			sp := renderSpan(ho, "fig6")
			harness.RenderFigure6(w, f)
			sp.End()
			return nil
		},
	},
	{name: "fig7", figure: harness.Figure7},
	{name: "fig8", figure: harness.Figure8},
	{name: "fig9", figure: harness.Figure9},
	{
		name: "model",
		run: func(ctx context.Context, ho harness.Options, w io.Writer) error {
			rows, err := harness.ModelStudy(ctx, ho)
			if err != nil {
				return err
			}
			sp := renderSpan(ho, "model")
			harness.RenderModelStudy(w, rows)
			sp.End()
			return nil
		},
	},
}

// renderFigure is the default text report for grid figures.
func (e experiment) renderFigure(ctx context.Context, ho harness.Options, w io.Writer) error {
	f, err := e.figure(ctx, ho)
	if err != nil {
		return err
	}
	sp := renderSpan(ho, e.name)
	harness.RenderFigure(w, f)
	sp.End()
	return nil
}

func lookupExperiment(name string) (experiment, error) {
	for _, e := range experiments {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("hbat: unknown experiment %q (known: %v)", name, ExperimentNames)
}

// ExperimentNames lists the experiments RunExperiment accepts, in the
// paper's presentation order (derived from the registry). "model" is
// this repository's addition: the paper's Section 2 analytical model
// fitted to every design (DESIGN.md's experiment index).
var ExperimentNames = func() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}()

// CSVExperimentNames lists the experiments ExperimentCSV accepts: the
// design-grid figures.
func CSVExperimentNames() []string {
	var names []string
	for _, e := range experiments {
		if e.figure != nil {
			names = append(names, e.name)
		}
	}
	return names
}

// RunExperiment regenerates one of the paper's evaluation artifacts
// and writes a text report to w, honoring ctx cancellation: a
// cancelled context stops dispatching queued simulations, interrupts
// in-flight ones at a cycle-granular check, and returns ctx.Err().
// Successive calls from one process share the package's sweep engine,
// so a spec that one experiment already simulated (for example Table
// 3's T4 column, a subset of Figure 5's grid) is served from cache.
// See ExperimentNames.
func RunExperiment(ctx context.Context, name string, o ExperimentOptions, w io.Writer) error {
	e, err := lookupExperiment(name)
	if err != nil {
		return err
	}
	ho, err := o.harness()
	if err != nil {
		return err
	}
	if e.run != nil {
		return e.run(ctx, ho, w)
	}
	return e.renderFigure(ctx, ho, w)
}

// ExperimentCSV runs one of the design-grid experiments (see
// CSVExperimentNames) and writes machine-readable CSV for external
// plotting, honoring ctx cancellation.
func ExperimentCSV(ctx context.Context, name string, o ExperimentOptions, w io.Writer) error {
	e, err := lookupExperiment(name)
	if err != nil {
		return err
	}
	if e.figure == nil {
		return fmt.Errorf("hbat: no CSV form for experiment %q (CSV-capable: %v)", name, CSVExperimentNames())
	}
	ho, err := o.harness()
	if err != nil {
		return err
	}
	f, err := e.figure(ctx, ho)
	if err != nil {
		return err
	}
	sp := renderSpan(ho, e.name+".csv")
	harness.FigureCSV(w, f)
	sp.End()
	return nil
}

// WriteReport renders the whole evaluation — Table 3, Figures 5-9 and
// the Section 2 model fit — as one self-contained HTML page (inline SVG
// charts, no external assets) stamped with the generated time. It runs
// on the package's sweep engine, so once RunExperiment has produced the
// text artifacts under the same options every spec is a memo hit and
// the page costs no further simulation.
func WriteReport(ctx context.Context, o ExperimentOptions, w io.Writer, generated time.Time) error {
	ho, err := o.harness()
	if err != nil {
		return err
	}
	return report.Generate(ctx, w, ho, nil, generated)
}
