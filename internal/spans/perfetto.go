package spans

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"hbat/internal/pipetrace"
)

// Perfetto track layout for a merged sweep timeline. The macro
// process holds one thread per trace (the sweep trace plus one per
// run), with each phase span as a duration slice in wall-clock
// microseconds. Every attached pipetrace recorder then gets its own
// pair of processes (pipeline + memory, exactly the standalone
// pipetrace layout) whose events are shifted so cycle 0 lands at the
// anchoring macro span's start — a run's micro pipeline events nest
// under that run's simulate span on the same timeline.
const (
	pidMacro     = 0
	microPidBase = 1000
)

// jargs renders a span's identity and attributes as the inner body
// of a trace-event args object, attribute keys sorted for stable
// output.
func jargs(d SpanData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\"trace\":%d,\"span\":%d", d.Trace, d.Span)
	if d.TraceW3C != "" {
		fmt.Fprintf(&b, ",\"trace_id\":%s", pipetrace.Quote(d.TraceW3C))
	}
	if d.SpanW3C != "" {
		fmt.Fprintf(&b, ",\"span_id\":%s", pipetrace.Quote(d.SpanW3C))
	}
	if d.RemoteParent != "" {
		fmt.Fprintf(&b, ",\"parent_span_id\":%s", pipetrace.Quote(d.RemoteParent))
	}
	keys := make([]string, 0, len(d.Attrs))
	for k := range d.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s:%s", pipetrace.Quote(k), pipetrace.Quote(d.Attrs[k]))
	}
	return b.String()
}

// threadLabel names a trace's macro track after its root span.
func threadLabel(root SpanData) string {
	label := fmt.Sprintf("%s #%d", root.Name, root.Trace)
	if w, ok := root.Attrs["workload"]; ok {
		if d, ok := root.Attrs["design"]; ok {
			label = fmt.Sprintf("%s %s/%s #%d", root.Name, w, d, root.Trace)
		}
	}
	return label
}

// writePart writes one process's spans as Perfetto process pid: one
// thread per trace, named prefix plus its root span's label (the
// parentless span with the lowest id; "trace #N" when the root is
// missing, as after a torn journal tail), and one slice per span,
// shifted by shift µs. Spans are sorted in place — by trace, then
// start, then span id — and every thread is named before the first
// slice. Both Perfetto exports lay a process out through here, so one
// part of a merged timeline reads exactly like the single-process
// export.
func writePart(pw *pipetrace.PerfettoWriter, pid int, process, prefix string, shift int64, spans []SpanData) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.StartUS != b.StartUS {
			return a.StartUS < b.StartUS
		}
		return a.Span < b.Span
	})
	roots := make(map[TraceID]SpanData)
	for _, d := range spans {
		r, ok := roots[d.Trace]
		if !ok {
			r = SpanData{Trace: d.Trace, Name: "trace"}
		}
		if d.Parent == 0 && (r.Span == 0 || d.Span < r.Span) {
			r = d
		}
		roots[d.Trace] = r
	}
	pw.ProcessName(pid, process)
	for n, d := range spans {
		if n == 0 || d.Trace != spans[n-1].Trace {
			pw.ThreadName(pid, int(d.Trace), prefix+threadLabel(roots[d.Trace]))
		}
	}
	for _, d := range spans {
		pw.Slice(pid, int(d.Trace), d.StartUS+shift, d.DurUS, d.Name, jargs(d))
	}
}

// WritePerfetto exports every kept finished span — and every attached
// micro recorder — as one Chrome/Perfetto trace-event JSON document.
// Macro timestamps are wall-clock microseconds since the tracer's
// epoch; micro (pipetrace) events keep their 1-cycle-=-1-µs scale,
// offset to their anchor span's start.
func (t *Tracer) WritePerfetto(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	t.mu.Lock()
	micro := make([]microTrack, len(t.micro))
	copy(micro, t.micro)
	t.mu.Unlock()

	pw := pipetrace.NewPerfettoWriter(w)
	writePart(pw, pidMacro, "sweep (macro, wall µs)", "", 0, spans)

	// Micro timelines: a process pair per attachment, time-shifted to
	// the anchor span's start.
	for i, m := range micro {
		pipe := microPidBase + 2*i
		m.rec.AppendPerfetto(pw, pipe, pipe+1, m.startUS,
			fmt.Sprintf("run #%d %s pipeline (1 cycle = 1 µs)", m.trace, m.label),
			fmt.Sprintf("run #%d %s translation+memory", m.trace, m.label))
	}
	return pw.Close()
}

// WritePerfettoFile writes the merged timeline to path.
func (t *Tracer) WritePerfettoFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
