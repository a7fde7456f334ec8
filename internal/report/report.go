// Package report renders experiment results as a self-contained HTML
// page with inline SVG bar charts mirroring the paper's figures — the
// visual companion to the text reports in internal/harness. Everything
// is generated with the standard library; the page has no external
// dependencies.
package report

import (
	"context"
	"fmt"
	"html/template"
	"io"
	"time"

	"hbat/internal/engine"
	"hbat/internal/harness"
)

// Data is everything the template renders.
type Data struct {
	Title     string
	Generated string
	Scale     string
	Table3    []harness.Table3Row
	Figures   []*FigureView
	Figure6   *Fig6View
	Model     []harness.ModelRow
}

// FigureView is one design-comparison chart.
type FigureView struct {
	Name    string
	Caption string
	Bars    []Bar
	Detail  *harness.FigureResult
}

// Bar is one design's normalized result.
type Bar struct {
	Label string
	Value float64 // normalized IPC (0..~1)
	X     int
	H     int
	Y     int
	Color string
}

// Fig6View is the miss-rate study.
type Fig6View struct {
	Sizes  []int
	Rows   []Fig6Row
	AvgRow []string
}

// Fig6Row is one workload's miss rates.
type Fig6Row struct {
	Workload string
	Cells    []string
}

// barColor groups the Table 2 designs by family, echoing the paper's
// figure shading.
func barColor(design string) string {
	switch design {
	case "T4", "T2", "T1":
		return "#4878a8" // multi-ported
	case "M16", "M8", "M4":
		return "#58a066" // multi-level
	case "P8":
		return "#8868b0" // pretranslation
	case "I8", "I4", "X4":
		return "#c8803c" // interleaved
	default:
		return "#b05860" // piggybacked
	}
}

const (
	chartHeight = 220
	barWidth    = 44
	barGap      = 10
)

// buildFigure lays out the bar chart for one figure.
func buildFigure(f *harness.FigureResult) *FigureView {
	v := &FigureView{Name: f.Name, Caption: f.Caption, Detail: f}
	for i, d := range f.Designs {
		n := f.NormalizedAvg(d)
		h := int(n * float64(chartHeight))
		if h < 2 {
			h = 2
		}
		v.Bars = append(v.Bars, Bar{
			Label: d,
			Value: n,
			X:     i * (barWidth + barGap),
			H:     h,
			Y:     chartHeight - h,
			Color: barColor(d),
		})
	}
	return v
}

// ChartWidth sizes the SVG for the bar count.
func (v *FigureView) ChartWidth() int {
	return len(v.Bars)*(barWidth+barGap) + barGap
}

// Generate runs the selected experiments and writes the HTML report.
// figures selects among fig5/fig7/fig8/fig9 (nil = all four); Table 3,
// Figure 6, and the model study are always included.
func Generate(ctx context.Context, w io.Writer, opts harness.Options, figures []string, now time.Time) error {
	if figures == nil {
		figures = []string{"fig5", "fig7", "fig8", "fig9"}
	}
	if opts.Engine == nil {
		// One engine for the whole report: fig5 reuses Table 3's T4
		// runs and every figure shares workload builds.
		opts.Engine = engine.New()
	}
	data := Data{
		Title:     "High-Bandwidth Address Translation — reproduction report",
		Generated: now.UTC().Format(time.RFC3339),
		Scale:     opts.Scale.String(),
	}

	rows, err := harness.Table3(ctx, opts)
	if err != nil {
		return err
	}
	data.Table3 = rows

	for _, name := range figures {
		var f *harness.FigureResult
		switch name {
		case "fig5":
			f, err = harness.Figure5(ctx, opts)
		case "fig7":
			f, err = harness.Figure7(ctx, opts)
		case "fig8":
			f, err = harness.Figure8(ctx, opts)
		case "fig9":
			f, err = harness.Figure9(ctx, opts)
		default:
			return fmt.Errorf("report: unknown figure %q", name)
		}
		if err != nil {
			return err
		}
		data.Figures = append(data.Figures, buildFigure(f))
	}

	f6, err := harness.Figure6(ctx, opts, nil)
	if err != nil {
		return err
	}
	v6 := &Fig6View{Sizes: f6.Sizes}
	for _, wl := range f6.Workloads {
		row := Fig6Row{Workload: wl}
		for _, s := range f6.Sizes {
			row.Cells = append(row.Cells, fmt.Sprintf("%.3f%%", 100*f6.MissRate[wl][s]))
		}
		v6.Rows = append(v6.Rows, row)
	}
	for _, s := range f6.Sizes {
		v6.AvgRow = append(v6.AvgRow, fmt.Sprintf("%.3f%%", 100*f6.RTWAvg(s)))
	}
	data.Figure6 = v6

	model, err := harness.ModelStudy(ctx, opts)
	if err != nil {
		return err
	}
	data.Model = model

	// The HTML render gets its own span (rendering is per-artifact,
	// not per-run) on the engine's tracer when one is attached.
	if tr := opts.Engine.Spans(); tr.Enabled() {
		sp := tr.Start(tr.NewTrace(), nil, "render").SetAttr("artifact", "report.html")
		defer sp.End()
	}
	return pageTemplate.Execute(w, &data)
}

var pageTemplate = template.Must(template.New("report").Funcs(template.FuncMap{
	"pct": func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) },
	"f3":  func(v float64) string { return fmt.Sprintf("%.3f", v) },
	"f4":  func(v float64) string { return fmt.Sprintf("%.4f", v) },
}).Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{{.Title}}</title>
<style>
 body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 62em; color: #222; }
 h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em; }
 table { border-collapse: collapse; margin: 1em 0; }
 th, td { border: 1px solid #ccc; padding: 3px 9px; text-align: right; }
 th:first-child, td:first-child { text-align: left; }
 .bar-label { font-size: 11px; text-anchor: middle; }
 .bar-value { font-size: 10px; text-anchor: middle; fill: #333; }
 .note { color: #555; font-size: 0.9em; }
 figure { margin: 1em 0; }
</style></head><body>
<h1>{{.Title}}</h1>
<p class="note">Austin &amp; Sohi, ISCA 1996 — regenerated {{.Generated}}, workload scale "{{.Scale}}".
Bars are run-time weighted average IPC normalized to the four-ported TLB (T4).</p>

<h2>Table 3 — program execution performance (baseline, T4)</h2>
<table><tr><th>program</th><th>insts</th><th>loads</th><th>stores</th>
<th>issue IPC</th><th>commit IPC</th><th>ld+st/cyc</th><th>br pred</th></tr>
{{range .Table3}}<tr><td>{{.Workload}}</td><td>{{.Insts}}</td><td>{{.Loads}}</td><td>{{.Stores}}</td>
<td>{{f3 .IssueIPC}}</td><td>{{f3 .CommitIPC}}</td><td>{{f3 .CommitMem}}</td><td>{{pct .BranchRate}}</td></tr>
{{end}}</table>

{{range .Figures}}
<h2>{{.Name}} — {{.Caption}}</h2>
<figure>
<svg width="{{.ChartWidth}}" height="270" role="img">
{{range .Bars}}<g>
<rect x="{{.X}}" y="{{.Y}}" width="44" height="{{.H}}" fill="{{.Color}}"></rect>
<text class="bar-value" x="{{.X}}" dx="22" y="{{.Y}}" dy="-4">{{f3 .Value}}</text>
<text class="bar-label" x="{{.X}}" dx="22" y="240">{{.Label}}</text>
</g>{{end}}
</svg>
</figure>
<details><summary>per-workload normalized IPC</summary>
<table><tr><th>workload</th>{{range .Detail.Designs}}<th>{{.}}</th>{{end}}</tr>
{{$d := .Detail}}
{{range $wl := .Detail.Workloads}}<tr><td>{{$wl}}</td>
{{range $des := $d.Designs}}<td>{{f3 ($d.Normalized $des $wl)}}</td>{{end}}</tr>
{{end}}</table></details>
{{end}}

<h2>Figure 6 — TLB miss rates (fully associative; LRU &le; 16 entries, random above)</h2>
<table><tr><th>workload</th>{{range .Figure6.Sizes}}<th>{{.}}</th>{{end}}</tr>
{{range .Figure6.Rows}}<tr><td>{{.Workload}}</td>{{range .Cells}}<td>{{.}}</td>{{end}}</tr>{{end}}
<tr><td><b>RTW-avg</b></td>{{range .Figure6.AvgRow}}<td><b>{{.}}</b></td>{{end}}</tr></table>

<h2>Section 2 model, fitted per design</h2>
<table><tr><th>design</th><th>f_shielded</th><th>t_stalled</th><th>t_TLBhit+</th>
<th>M_TLB</th><th>t_AT</th><th>f_TOL</th><th>IPC vs T4</th></tr>
{{range .Model}}<tr><td>{{.Design}}</td><td>{{f4 .FShielded}}</td><td>{{f4 .TStalled}}</td>
<td>{{f4 .TTLBHit}}</td><td>{{f4 .MTLB}}</td><td>{{f4 .TAT}}</td><td>{{f3 .FTol}}</td><td>{{f4 .RelIPC}}</td></tr>
{{end}}</table>

<p class="note">Generated by hbat-experiments -html. Design families:
<span style="color:#4878a8">multi-ported</span>,
<span style="color:#58a066">multi-level</span>,
<span style="color:#8868b0">pretranslation</span>,
<span style="color:#c8803c">interleaved</span>,
<span style="color:#b05860">piggybacked</span>.</p>
</body></html>
`))
