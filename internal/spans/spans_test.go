package spans

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hbat/internal/pipetrace"
)

// testClock is a settable monotonic clock for deterministic timestamps.
type testClock struct{ at time.Duration }

func (c *testClock) now() time.Duration      { return c.at }
func (c *testClock) advance(d time.Duration) { c.at += d }
func (c *testClock) set(d time.Duration)     { c.at = d }
func (c *testClock) tracer() *Tracer {
	t := New()
	t.now, t.epoch = c.now, time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return t
}

func TestSpanLifecycle(t *testing.T) {
	clk := &testClock{}
	tr := clk.tracer()
	if !tr.Enabled() {
		t.Fatal("New tracer not enabled")
	}

	rt := tr.NewTrace()
	if rt != 1 {
		t.Fatalf("first trace id = %d, want 1", rt)
	}
	root := tr.Start(rt, nil, "run").SetAttr("workload", "compress")
	clk.set(1500 * time.Microsecond)
	child := tr.Start(rt, root, "simulate")
	clk.set(2500 * time.Microsecond)
	if d := child.End(); d != 1000*time.Microsecond {
		t.Fatalf("child duration = %v, want 1ms", d)
	}
	clk.set(3 * time.Millisecond)
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d finished spans, want 2", len(spans))
	}
	// Completion order: child first.
	want := []SpanData{
		{Trace: 1, Span: 2, Parent: 1, Name: "simulate", StartUS: 1500, DurUS: 1000},
		{Trace: 1, Span: 1, Name: "run", StartUS: 0, DurUS: 3000,
			Attrs: map[string]string{"workload": "compress"}},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %+v\nwant    %+v", spans, want)
	}
}

func TestEndIdempotent(t *testing.T) {
	clk := &testClock{}
	tr := clk.tracer()
	sp := tr.Start(tr.NewTrace(), nil, "x")
	clk.advance(time.Millisecond)
	if d := sp.End(); d != time.Millisecond {
		t.Fatalf("first End = %v, want 1ms", d)
	}
	clk.advance(time.Millisecond)
	if d := sp.End(); d != 0 {
		t.Fatalf("second End = %v, want 0", d)
	}
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("span finished %d times", n)
	}
}

func TestStartAtRetroactive(t *testing.T) {
	clk := &testClock{}
	tr := clk.tracer()
	rt := tr.NewTrace()
	mark := tr.Now()
	clk.set(700 * time.Microsecond)
	// The wait turned out to be real: record it from the mark.
	sp := tr.StartAt(rt, nil, "singleflight_wait", mark)
	sp.End()
	got := tr.Spans()[0]
	if got.StartUS != 0 || got.DurUS != 700 {
		t.Fatalf("retroactive span = start %d dur %d, want 0/700", got.StartUS, got.DurUS)
	}
}

func TestOpenSnapshot(t *testing.T) {
	clk := &testClock{}
	tr := clk.tracer()
	rt := tr.NewTrace()
	root := tr.Start(rt, nil, "run").SetAttr("workload", "gcc")
	clk.set(400 * time.Microsecond)
	tr.Start(rt, root, "simulate")
	clk.set(1000 * time.Microsecond)

	open := tr.Open()
	if len(open) != 2 {
		t.Fatalf("got %d open spans, want 2", len(open))
	}
	if open[0].Name != "run" || open[0].AgeUS != 1000 || open[0].Attrs["workload"] != "gcc" {
		t.Fatalf("root open span = %+v", open[0])
	}
	if open[1].Name != "simulate" || open[1].AgeUS != 600 || open[1].Parent != root.ID() {
		t.Fatalf("child open span = %+v", open[1])
	}

	root.End()
	if got := tr.Open(); len(got) != 1 || got[0].Name != "simulate" {
		t.Fatalf("after root End, open = %+v", got)
	}
}

// TestRecentRing: past spanKept finished spans the tracer keeps the
// last spanKept (Spans, in completion order), Recent serves the last
// recentKept of those, and the journal still receives every span.
func TestRecentRing(t *testing.T) {
	const k = 3
	clk := &testClock{}
	tr := clk.tracer()
	var journal bytes.Buffer
	if err := tr.SetJournal(&journal); err != nil {
		t.Fatal(err)
	}
	rt := tr.NewTrace()
	for i := 0; i < spanKept+k; i++ {
		tr.Start(rt, nil, "s").End()
	}
	if err := tr.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// Span ids count from 1 in start order, so the i-th oldest kept
	// span of the last n is id total-n+1+i.
	check := func(what string, got []SpanData, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s holds %d spans, want %d", what, len(got), n)
		}
		for i, d := range got {
			if want := uint64(spanKept + k - n + 1 + i); d.Span != want {
				t.Fatalf("%s[%d] is span %d, want %d (the last %d, oldest first)", what, i, d.Span, want, n)
			}
		}
	}
	check("Spans()", tr.Spans(), spanKept)
	check("Recent()", tr.Recent(), recentKept)
	_, journaled, err := ReadJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	check("the journal", journaled, spanKept+k)
}

// golden is the exact journal the clock/epoch above must produce: the
// bytes are load-bearing (versioned header, one line per span in
// completion order, sorted attribute keys).
const goldenJournal = `{"v":1,"epoch":"2026-01-02T03:04:05Z"}
{"trace":1,"span":2,"parent":1,"name":"simulate","start_us":1500,"dur_us":1000}
{"trace":1,"span":1,"name":"run","start_us":0,"dur_us":3000,"attrs":{"cache":"miss","workload":"compress"}}
`

func writeGoldenSpans(t *testing.T, w *bytes.Buffer) *Tracer {
	t.Helper()
	clk := &testClock{}
	tr := clk.tracer()
	if err := tr.SetJournal(w); err != nil {
		t.Fatal(err)
	}
	rt := tr.NewTrace()
	root := tr.Start(rt, nil, "run").SetAttr("workload", "compress").SetAttr("cache", "miss")
	clk.set(1500 * time.Microsecond)
	child := tr.Start(rt, root, "simulate")
	clk.set(2500 * time.Microsecond)
	child.End()
	clk.set(3 * time.Millisecond)
	root.End()
	return tr
}

func TestJournalGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := writeGoldenSpans(t, &buf)
	if err := tr.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenJournal {
		t.Fatalf("journal bytes:\n%s\nwant:\n%s", buf.String(), goldenJournal)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := writeGoldenSpans(t, &buf)
	h, spans, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.V != JournalVersion || h.Epoch != "2026-01-02T03:04:05Z" {
		t.Fatalf("header = %+v", h)
	}
	if !reflect.DeepEqual(spans, tr.Spans()) {
		t.Fatalf("decoded spans = %+v\nwant %+v", spans, tr.Spans())
	}
	// Re-marshaling the decoded spans must reproduce the journal's
	// record lines byte for byte: the format is deterministic.
	var rebuilt bytes.Buffer
	hdr, _ := json.Marshal(h)
	rebuilt.Write(append(hdr, '\n'))
	for _, d := range spans {
		line, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt.Write(append(line, '\n'))
	}
	if rebuilt.String() != goldenJournal {
		t.Fatalf("re-marshaled journal:\n%s\nwant:\n%s", rebuilt.String(), goldenJournal)
	}
}

func TestJournalTornTail(t *testing.T) {
	cases := map[string]string{
		"cut mid-record":   goldenJournal[:len(goldenJournal)-20],
		"cut before \\n":   goldenJournal[:len(goldenJournal)-1],
		"garbage tail":     goldenJournal + "{\"trace\":9,\"span",
		"empty tail lines": goldenJournal,
	}
	for name, in := range cases {
		_, spans, err := ReadJournal(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(spans) < 1 || spans[0].Name != "simulate" {
			t.Fatalf("%s: intact records lost, got %+v", name, spans)
		}
	}
}

func TestJournalBadInput(t *testing.T) {
	if _, _, err := ReadJournal(strings.NewReader("not json\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, _, err := ReadJournal(strings.NewReader(`{"v":99,"epoch":"x"}` + "\n")); err == nil {
		t.Fatal("unknown version accepted")
	}
	// A corrupt record with valid records AFTER it is real corruption,
	// not a torn tail.
	in := strings.Replace(goldenJournal, `"span":2`, `"span":`, 1)
	if _, _, err := ReadJournal(strings.NewReader(in)); err == nil {
		t.Fatal("mid-journal corruption accepted")
	}
}

func TestOpenJournalFile(t *testing.T) {
	path := t.TempDir() + "/spans.jsonl"
	clk := &testClock{}
	tr := clk.tracer()
	if err := tr.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	tr.Start(tr.NewTrace(), nil, "run").End()
	if err := tr.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, spans, err := ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	if h.V != JournalVersion || len(spans) != 1 || spans[0].Name != "run" {
		t.Fatalf("file journal: header %+v spans %+v", h, spans)
	}
}

// TestDisabledNoAllocs proves the exact call sequence the sweep engine
// makes per run is free when tracing is off: a nil Tracer must not
// allocate, ever.
func TestDisabledNoAllocs(t *testing.T) {
	var tr *Tracer
	var rec *pipetrace.Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("nil tracer enabled")
		}
		rt := tr.NewTrace()
		mark := tr.Now()
		root := tr.Start(rt, nil, "run").SetAttr("workload", "x")
		tr.StartAt(rt, root, "singleflight_wait", mark).End()
		child := tr.Start(rt, root, "simulate")
		child.SetAttr("committed", "1")
		tr.AttachMicro(child, "spec", rec)
		child.End()
		root.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f per run, want 0", allocs)
	}
}

func TestWritePerfettoMerged(t *testing.T) {
	clk := &testClock{}
	tr := clk.tracer()
	rt := tr.NewTrace()
	root := tr.Start(rt, nil, "run").SetAttr("workload", "compress").SetAttr("design", "T4")
	clk.set(2000 * time.Microsecond)
	sim := tr.Start(rt, root, "simulate")

	// A tiny micro timeline: one instruction fetched at cycle 1,
	// committed at cycle 3.
	rec := pipetrace.New(pipetrace.Config{Cap: 16})
	rec.Emit(0, 1, pipetrace.KFetch, 0x100, nil, 0)
	rec.Emit(0, 3, pipetrace.KCommit, 0x100, nil, 0)
	tr.AttachMicro(sim, "compress/T4", rec)

	clk.set(5000 * time.Microsecond)
	sim.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v\n%s", err, buf.String())
	}

	var macroSlices, microEvents int
	var simTS int64 = -1
	var microMinTS int64 = 1 << 62
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M":
			continue
		case ev.PID == pidMacro:
			macroSlices++
			if ev.Name == "simulate" {
				simTS = ev.TS
				if ev.Args["trace"].(float64) != 1 {
					t.Fatalf("simulate args = %v", ev.Args)
				}
			}
		case ev.PID >= microPidBase:
			microEvents++
			if ev.TS < microMinTS {
				microMinTS = ev.TS
			}
		default:
			t.Fatalf("event on unexpected pid %d: %+v", ev.PID, ev)
		}
	}
	if macroSlices != 2 {
		t.Fatalf("macro slices = %d, want 2", macroSlices)
	}
	if simTS != 2000 {
		t.Fatalf("simulate ts = %d, want 2000", simTS)
	}
	if microEvents == 0 {
		t.Fatal("no micro events in merged trace")
	}
	// Micro events are shifted to the simulate span's start: nothing
	// may land before it.
	if microMinTS < simTS {
		t.Fatalf("micro event at ts %d precedes its anchor span (ts %d)", microMinTS, simTS)
	}

	// Thread metadata names the run's track after its root span.
	if !strings.Contains(buf.String(), "run compress/T4 #1") {
		t.Fatal("macro thread not named after root span")
	}
}

func TestNilTracerExports(t *testing.T) {
	var tr *Tracer
	if err := tr.WritePerfetto(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetJournal(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if tr.Open() != nil || tr.Recent() != nil || tr.Spans() != nil {
		t.Fatal("nil tracer returned non-nil snapshots")
	}
}
