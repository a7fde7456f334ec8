package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one exposition label pair.
type Label struct {
	Name, Value string
}

// Series is one sample of a counter or gauge family.
type Series struct {
	Labels []Label
	Value  float64
}

// HistSeries is one labeled histogram: per-bucket (not cumulative)
// counts over finite upper bounds, with the implicit +Inf overflow
// bucket last.
type HistSeries struct {
	Labels []Label
	Bounds []int64  // ascending finite upper bounds
	Counts []uint64 // len(Bounds)+1; last is the +Inf bucket
	Sum    float64
	Count  uint64
}

// Family is one exposition metric family. Kind selects which series
// slice is meaningful: Series for "counter"/"gauge", Hists for
// "histogram".
type Family struct {
	Name   string // full exposition name (hbat_...)
	Kind   string
	Help   string
	Series []Series
	Hists  []HistSeries
}

// Scalar returns a family of one unlabelled series.
func Scalar(name, kind, help string, v float64) Family {
	return Family{Name: name, Kind: kind, Help: help, Series: []Series{{Value: v}}}
}

// WriteExposition renders families as Prometheus text exposition
// (version 0.0.4). Families with the same name are merged into one
// group (their kinds must agree), families are sorted by name, and
// series within a family by label signature, so the output is stable
// for golden tests and scrapes alike.
func WriteExposition(w io.Writer, fams []Family) error {
	merged := make(map[string]*Family)
	var names []string
	for i := range fams {
		f := &fams[i]
		if f.Name == "" {
			return fmt.Errorf("obs: family with empty name")
		}
		if g, ok := merged[f.Name]; ok {
			if g.Kind != f.Kind {
				return fmt.Errorf("obs: family %s declared both %s and %s", f.Name, g.Kind, f.Kind)
			}
			g.Series = append(g.Series, f.Series...)
			g.Hists = append(g.Hists, f.Hists...)
			if g.Help == "" {
				g.Help = f.Help
			}
			continue
		}
		cp := *f
		merged[f.Name] = &cp
		names = append(names, f.Name)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := merged[name]
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, f.Kind)
		switch f.Kind {
		case "histogram":
			hists := f.Hists
			sort.SliceStable(hists, func(a, b int) bool {
				return labelString(hists[a].Labels) < labelString(hists[b].Labels)
			})
			for _, h := range hists {
				var cum uint64
				for i, bound := range h.Bounds {
					cum += h.Counts[i]
					writeSample(bw, name+"_bucket", withLe(h.Labels, strconv.FormatInt(bound, 10)), float64(cum))
				}
				if n := len(h.Bounds); n < len(h.Counts) {
					cum += h.Counts[n]
				}
				writeSample(bw, name+"_bucket", withLe(h.Labels, "+Inf"), float64(cum))
				writeSample(bw, name+"_sum", h.Labels, h.Sum)
				writeSample(bw, name+"_count", h.Labels, float64(h.Count))
			}
		default:
			series := f.Series
			sort.SliceStable(series, func(a, b int) bool {
				return labelString(series[a].Labels) < labelString(series[b].Labels)
			})
			for _, s := range series {
				writeSample(bw, name, s.Labels, s.Value)
			}
		}
	}
	return bw.Flush()
}

// withLe returns labels plus a trailing le pair, never aliasing the
// input's backing array.
func withLe(labels []Label, le string) []Label {
	out := make([]Label, len(labels)+1)
	copy(out, labels)
	out[len(out)-1] = Label{"le", le}
	return out
}

func writeSample(w *bufio.Writer, name string, labels []Label, v float64) {
	w.WriteString(name)
	w.WriteString(labelString(labels))
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// labelString renders `{a="b",c="d"}` with label-value escaping, or ""
// for no labels.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue prints integers exactly and everything else in Go's
// shortest round-trippable form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
