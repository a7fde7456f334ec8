package spans

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hbat/internal/pipetrace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenPerfettoTracer records a fixed span set on a settable clock: a
// run trace whose simulate span anchors a micro timeline, a bound
// (cross-process) trace whose root carries wire ids and an attribute
// that needs escaping, and a trace whose root never finished.
func goldenPerfettoTracer() *Tracer {
	clk := &testClock{}
	tr := clk.tracer()

	rt := tr.NewTrace()
	root := tr.Start(rt, nil, "run").SetAttr("workload", "compress").SetAttr("design", "T4")
	clk.set(2000 * time.Microsecond)
	sim := tr.Start(rt, root, "simulate").SetAttr("committed", "42")
	rec := pipetrace.New(pipetrace.Config{Cap: 16})
	rec.Emit(0, 1, pipetrace.KFetch, 0x100, nil, 0)
	rec.Emit(0, 3, pipetrace.KCommit, 0x100, nil, 0)
	tr.AttachMicro(sim, "compress/T4", rec)
	clk.set(5000 * time.Microsecond)
	sim.End()
	root.End()

	bt := tr.NewTraceWith(strings.Repeat("ab", 16), strings.Repeat("cd", 8), strings.Repeat("ef", 8))
	job := tr.Start(bt, nil, "job").SetAttr("note", "a \"quoted\" back\\slash\n")
	clk.set(5500 * time.Microsecond)
	tr.Start(bt, job, "queue").End()
	clk.set(6000 * time.Microsecond)
	job.End()

	ot := tr.NewTrace()
	sweep := tr.Start(ot, nil, "sweep") // never ends: no finished root
	clk.set(6200 * time.Microsecond)
	gap := tr.Start(ot, sweep, "sched_gap")
	clk.set(7000 * time.Microsecond)
	gap.End()
	return tr
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden file:\n%s", name, got)
	}
}

// TestPerfettoGolden pins both Perfetto exports byte for byte: the
// single-process timeline and a two-part merge (the same spans as the
// "client", plus an "hbatd" part with a later epoch whose root is
// parented under the client's bound job span).
func TestPerfettoGolden(t *testing.T) {
	tr := goldenPerfettoTracer()
	var single bytes.Buffer
	if err := tr.WritePerfetto(&single); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "perfetto.golden.json", single.Bytes())

	client := JournalPart{
		Label:  "client",
		Header: Header{V: JournalVersion, Epoch: "2026-01-02T03:04:05Z"},
		Spans:  tr.Spans(),
	}
	server := JournalPart{
		Label:  "hbatd",
		Header: Header{V: JournalVersion, Epoch: "2026-01-02T03:04:05.0015Z"},
		Spans: []SpanData{
			{Trace: 1, Span: 2, Parent: 1, Name: "simulate", StartUS: 300, DurUS: 2000, TraceW3C: strings.Repeat("ab", 16)},
			{Trace: 1, Span: 1, Name: "job", StartUS: 100, DurUS: 2500, Attrs: map[string]string{"tenant": "me"},
				TraceW3C: strings.Repeat("ab", 16), SpanW3C: strings.Repeat("12", 8), RemoteParent: strings.Repeat("cd", 8)},
		},
	}
	var merged bytes.Buffer
	st, err := WriteMergedPerfetto(&merged, []JournalPart{client, server})
	if err != nil {
		t.Fatal(err)
	}
	if st.Linked != 1 || len(st.Spans) != 2 || st.Spans[0] != len(client.Spans) || st.Spans[1] != 2 {
		t.Fatalf("merge stats = %+v, want one linked root and %d+2 spans", st, len(client.Spans))
	}
	checkGolden(t, "perfetto_merged.golden.json", merged.Bytes())
}
