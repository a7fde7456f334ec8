package engine

import (
	"bytes"
	"context"
	"log/slog"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbat/internal/ckpt"
	"hbat/internal/cpu"
	"hbat/internal/prog"
	"hbat/internal/spans"
	"hbat/internal/store"
	"hbat/internal/workload"
)

// spansByName groups a tracer's finished spans by name.
func spansByName(tr *spans.Tracer) map[string][]spans.SpanData {
	out := make(map[string][]spans.SpanData)
	for _, d := range tr.Spans() {
		out[d.Name] = append(out[d.Name], d)
	}
	return out
}

// TestRunEmitsPhaseSpans pins the per-run span taxonomy: a memo miss
// produces a trace with program_build (cache disposition) and simulate
// (committed count) under a root "run" span; a
// memo hit produces its own minimal trace flagged cache=hit with the
// wait on the producer as a memo_wait span. The phase wall times land
// in the provenance log.
func TestRunEmitsPhaseSpans(t *testing.T) {
	eng := New()
	tr := spans.New()
	eng.SetSpans(tr)
	spec := sweepTestSpecs()[0]
	ctx := context.Background()

	if r := eng.Run(ctx, spec); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := eng.Run(ctx, spec); r.Err != nil { // memo hit
		t.Fatal(r.Err)
	}

	by := spansByName(tr)
	if len(by["run"]) != 2 {
		t.Fatalf("got %d run spans, want 2 (miss + hit)", len(by["run"]))
	}
	var miss, hit spans.SpanData
	for _, d := range by["run"] {
		if d.Attrs["cache"] == "hit" {
			hit = d
		} else {
			miss = d
		}
	}
	if miss.Span == 0 || hit.Span == 0 {
		t.Fatalf("missing miss/hit root spans: %+v", by["run"])
	}
	for _, key := range []string{"workload", "design", "spec_hash", "run_id"} {
		if miss.Attrs[key] == "" || hit.Attrs[key] == "" {
			t.Errorf("root spans missing attr %q: miss %v, hit %v", key, miss.Attrs, hit.Attrs)
		}
	}
	if miss.Attrs["workload"] != spec.Workload || miss.Attrs["spec_hash"] != spec.Hash() {
		t.Errorf("miss root attrs = %v", miss.Attrs)
	}

	// The executed run's phases, parented under its root.
	pb := by["program_build"]
	if len(pb) != 1 || pb[0].Parent != miss.Span || pb[0].Attrs["cache"] != "miss" {
		t.Errorf("program_build spans = %+v, want one under miss root with cache=miss", pb)
	}
	sim := by["simulate"]
	if len(sim) != 1 || sim[0].Parent != miss.Span {
		t.Fatalf("simulate spans = %+v, want one under miss root", sim)
	}
	if c, err := strconv.ParseUint(sim[0].Attrs["committed"], 10, 64); err != nil || c == 0 {
		t.Errorf("simulate committed attr = %q, want a positive count", sim[0].Attrs["committed"])
	}

	// The hit's wait on the (already finished) producer.
	mw := by["memo_wait"]
	if len(mw) != 1 || mw[0].Parent != hit.Span || mw[0].Trace == miss.Trace {
		t.Errorf("memo_wait spans = %+v, want one under the hit root on its own trace", mw)
	}

	// Phase wall times reach the provenance log: set for the executed
	// run, absent for the cache hit.
	log := eng.RunLog()
	if len(log) != 2 {
		t.Fatalf("%d run records, want 2", len(log))
	}
	if log[0].PhaseMs["simulate"] <= 0 || log[0].PhaseMs["program_build"] < 0 {
		t.Errorf("executed run PhaseMs = %v, want simulate > 0", log[0].PhaseMs)
	}
	if log[1].PhaseMs != nil {
		t.Errorf("cached run PhaseMs = %v, want nil", log[1].PhaseMs)
	}
	if got := miss.Attrs["run_id"]; got != strconv.FormatUint(log[0].RunID, 10) {
		t.Errorf("root run_id attr %q != recorded run id %d", got, log[0].RunID)
	}
}

// TestCheckpointSpans covers the fast-forward path: the first design
// builds the warm-up checkpoint (source=build with a ckpt_build child
// naming the engine), later designs reuse it from memory, and a fresh
// engine over the same checkpoint store loads it from disk (ckpt_load
// ok=true, source=disk).
func TestCheckpointSpans(t *testing.T) {
	dir := t.TempDir()
	mk := func(design string) RunSpec {
		return RunSpec{
			Workload: "espresso", Design: design, Budget: prog.Budget32,
			Scale: workload.ScaleTest, PageSize: 4096, Seed: 1, FastForward: 500,
		}
	}
	ctx := context.Background()

	eng, _ := newWithCkptStore(t, store.Config{Dir: dir})
	tr := spans.New()
	eng.SetSpans(tr)
	if r := eng.Run(ctx, mk("T4")); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := eng.Run(ctx, mk("T1")); r.Err != nil {
		t.Fatal(r.Err)
	}

	by := spansByName(tr)
	cks := by["checkpoint"]
	if len(cks) != 2 {
		t.Fatalf("got %d checkpoint spans, want 2", len(cks))
	}
	sources := map[string]int{}
	for _, d := range cks {
		sources[d.Attrs["source"]]++
	}
	if sources["build"] != 1 || sources["memory"] != 1 {
		t.Errorf("checkpoint sources = %v, want one build + one memory", sources)
	}
	cb := by["ckpt_build"]
	if len(cb) != 1 || cb[0].Parent != cks[0].Span && cb[0].Parent != cks[1].Span {
		t.Errorf("ckpt_build spans = %+v, want one under a checkpoint span", cb)
	}
	// The cold engine probed the (empty) store before building.
	cl := by["ckpt_load"]
	if len(cl) != 1 || cl[0].Attrs["ok"] != "false" || !store.Key(cl[0].Attrs["key"]) || len(cl[0].Attrs["key"]) != 64 {
		t.Errorf("ckpt_load spans = %+v, want one failed probe with a 64-hex key", cl)
	}
	ff := by["fast_forward"]
	if len(ff) != 2 {
		t.Errorf("got %d fast_forward spans, want 2", len(ff))
	}
	// Phase breakdown covers the checkpoint and fast-forward phases.
	var rec RunRecord
	for _, r := range eng.RunLog() {
		if !r.Cached && r.Design == "T4" {
			rec = r
		}
	}
	for _, phase := range []string{"program_build", "checkpoint", "fast_forward", "simulate"} {
		if _, ok := rec.PhaseMs[phase]; !ok {
			t.Errorf("PhaseMs missing %q: %v", phase, rec.PhaseMs)
		}
	}

	// A fresh engine over the same directory serves the checkpoint from
	// disk.
	eng2, _ := newWithCkptStore(t, store.Config{Dir: dir})
	tr2 := spans.New()
	eng2.SetSpans(tr2)
	if r := eng2.Run(ctx, mk("T4")); r.Err != nil {
		t.Fatal(r.Err)
	}
	by2 := spansByName(tr2)
	if cks := by2["checkpoint"]; len(cks) != 1 || cks[0].Attrs["source"] != "disk" {
		t.Errorf("warm-dir checkpoint spans = %+v, want one with source=disk", cks)
	}
	if cl := by2["ckpt_load"]; len(cl) != 1 || cl[0].Attrs["ok"] != "true" {
		t.Errorf("warm-dir ckpt_load spans = %+v, want one with ok=true", cl)
	}
	if cb := by2["ckpt_build"]; len(cb) != 0 {
		t.Errorf("warm-dir rebuilt the checkpoint: %+v", cb)
	}
}

// TestSingleflightWaitSpan forces the dedup-wait path deterministically:
// a checkpoint build parked in flight makes the next caller a waiter,
// whose blocked time must surface as a singleflight_wait span — visible
// in Open() while blocked, finished once the producer finishes. A ready
// entry (the common memory hit) must NOT get one.
func TestSingleflightWaitSpan(t *testing.T) {
	eng := New()
	tr := spans.New()
	eng.SetSpans(tr)
	spec := RunSpec{
		Workload: "espresso", Design: "T4", Budget: prog.Budget32,
		Scale: workload.ScaleTest, PageSize: 4096, Seed: 1, FastForward: 100,
	}
	building, release := make(chan struct{}), make(chan struct{})
	go eng.ckpts.do(context.Background(), spec.ckptKey(), func() (*ckpt.Checkpoint, error) {
		close(building)
		<-release
		return nil, nil // a nil checkpoint is fine here
	}, nil)
	<-building

	rt := tr.NewTrace()
	root := tr.Start(rt, nil, "run")
	csp := tr.Start(rt, root, "checkpoint")
	got := make(chan error, 1)
	var waited time.Duration
	go func() {
		_, err := eng.checkpoint(context.Background(), spec, nil, cpu.DefaultConfig(), csp, &waited)
		got <- err
	}()

	// The waiter must show up live before the producer finishes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var waiting bool
		for _, o := range tr.Open() {
			if o.Name == "singleflight_wait" && o.Parent == csp.ID() {
				waiting = true
			}
		}
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("singleflight_wait never appeared in Open(): %+v", tr.Open())
		}
		time.Sleep(time.Millisecond)
	}
	close(release) // the producer finishes
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if waited <= 0 {
		t.Errorf("waited = %v, want the blocked time", waited)
	}
	csp.End()
	root.End()

	by := spansByName(tr)
	if sf := by["singleflight_wait"]; len(sf) != 1 || sf[0].Parent != csp.ID() {
		t.Fatalf("singleflight_wait spans = %+v, want exactly one under the checkpoint span", sf)
	}
	if csp2 := by["checkpoint"]; csp2[0].Attrs["source"] != "memory" {
		t.Errorf("waiter checkpoint source = %q, want memory", csp2[0].Attrs["source"])
	}

	// Second caller finds the entry ready: a plain memory hit, no wait
	// span.
	csp3 := tr.Start(rt, nil, "checkpoint")
	if _, err := eng.checkpoint(context.Background(), spec, nil, cpu.DefaultConfig(), csp3, &waited); err != nil {
		t.Fatal(err)
	}
	csp3.End()
	if sf := spansByName(tr)["singleflight_wait"]; len(sf) != 1 {
		t.Errorf("ready entry produced a wait span: %+v", sf)
	}
}

// TestRunAllSweepSpans checks the sweep-level trace: one root "sweep"
// span carrying the grid size, and a sched_gap span per dispatched
// spec measuring how long it sat queued.
func TestRunAllSweepSpans(t *testing.T) {
	eng := New()
	tr := spans.New()
	eng.SetSpans(tr)
	specs := sweepTestSpecs()
	results, err := eng.RunAll(context.Background(), specs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	by := spansByName(tr)
	sw := by["sweep"]
	if len(sw) != 1 {
		t.Fatalf("got %d sweep spans, want 1", len(sw))
	}
	if sw[0].Attrs["runs"] != strconv.Itoa(len(specs)) || sw[0].Attrs["parallelism"] != "2" {
		t.Errorf("sweep attrs = %v", sw[0].Attrs)
	}
	if _, cancelled := sw[0].Attrs["cancelled"]; cancelled {
		t.Error("clean sweep flagged cancelled")
	}
	gaps := by["sched_gap"]
	if len(gaps) != len(specs) {
		t.Fatalf("got %d sched_gap spans, want %d", len(gaps), len(specs))
	}
	seen := map[string]bool{}
	for _, g := range gaps {
		if g.Parent != sw[0].Span || g.Trace != sw[0].Trace {
			t.Errorf("sched_gap not under sweep span: %+v", g)
		}
		seen[g.Attrs["spec"]] = true
	}
	for _, s := range specs {
		if !seen[s.String()] {
			t.Errorf("no sched_gap for %s", s)
		}
	}
	if len(by["run"]) != len(specs) {
		t.Errorf("got %d run spans, want %d", len(by["run"]), len(specs))
	}
}

// TestRunLoggerCarriesSpanIDs asserts run-scoped slog records are
// correlated with the trace: trace_id and span_id attributes appear
// when span tracing is on.
func TestRunLoggerCarriesSpanIDs(t *testing.T) {
	var buf bytes.Buffer
	eng := New()
	eng.SetLogger(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	eng.SetSpans(spans.New())
	if r := eng.Run(context.Background(), sweepTestSpecs()[0]); r.Err != nil {
		t.Fatal(r.Err)
	}
	out := buf.String()
	for _, want := range []string{`"trace_id":1`, `"span_id":1`, `"msg":"run finished"`} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %s:\n%s", want, out)
		}
	}
}
