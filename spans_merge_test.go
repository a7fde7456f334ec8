package hbat

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hbat/internal/engine"
	"hbat/internal/pipetrace"
	"hbat/internal/prog"
	"hbat/internal/spans"
	"hbat/internal/workload"
)

// TestMergedSpanTimeline runs a small sweep — one run carrying a micro
// pipeline trace — through an engine with span tracing on, exports the
// merged Perfetto document, and checks the contract the timeline
// stands on: macro phase spans live on pid 0 in wall microseconds,
// each attached micro trace gets its own process pair at pid >= 1000,
// and micro events are time-shifted so none precedes its anchoring
// simulate span.
func TestMergedSpanTimeline(t *testing.T) {
	tr := spans.New()
	eng := engine.New()
	eng.SetSpans(tr)

	specs := []engine.RunSpec{
		{
			Workload: "compress", Design: "I4", Budget: prog.Budget32,
			Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
			Trace: &pipetrace.Config{Cap: 1 << 16},
		},
		{
			Workload: "espresso", Design: "T4", Budget: prog.Budget32,
			Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
		},
	}
	results, err := eng.RunAll(context.Background(), specs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if results[0].Trace == nil {
		t.Fatal("traced spec captured no micro trace")
	}

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged export is not valid JSON: %v", err)
	}

	macroNames := map[string]int{}
	var microEvents, microPids int
	microMinTS := 1e18
	var simulateTS []float64
	pidsSeen := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		switch {
		case e.Pid == 0:
			if e.Ph == "X" {
				macroNames[e.Name]++
				if e.Name == "simulate" {
					simulateTS = append(simulateTS, e.Ts)
				}
			}
		case e.Pid >= 1000:
			microEvents++
			if !pidsSeen[e.Pid] {
				pidsSeen[e.Pid] = true
				microPids++
			}
			if e.Ts < microMinTS {
				microMinTS = e.Ts
			}
		default:
			t.Fatalf("event on unexpected pid %d: %+v", e.Pid, e)
		}
	}
	// The macro layer carries the whole span taxonomy of this sweep.
	for _, want := range []string{"sweep", "sched_gap", "run", "program_build", "simulate"} {
		if macroNames[want] == 0 {
			t.Errorf("no macro %q spans (have %v)", want, macroNames)
		}
	}
	if macroNames["run"] != 2 || macroNames["simulate"] != 2 {
		t.Errorf("macro span counts = %v, want 2 runs with 2 simulates", macroNames)
	}
	if microEvents == 0 || microPids < 2 {
		t.Fatalf("micro layer: %d events on %d pids, want events on a pipeline+memory process pair", microEvents, microPids)
	}
	// One traced run: exactly its simulate span anchors the micro
	// events; the shift must place them all at or after some simulate
	// span's start.
	anchored := false
	for _, ts := range simulateTS {
		if microMinTS >= ts {
			anchored = true
		}
	}
	if !anchored {
		t.Errorf("earliest micro event at ts %v precedes every simulate span (%v)", microMinTS, simulateTS)
	}
	// Micro process metadata carries the pipetrace track names so the
	// merged file reads like the standalone export.
	out := buf.String()
	for _, want := range []string{"pipeline (1 cycle = 1 µs)", "translation+memory", "sweep (macro, wall µs)"} {
		if !strings.Contains(out, want) {
			t.Errorf("merged export missing %q process label", want)
		}
	}
}

// TestFacadeSpanTracerAccessors checks the shared engine's span wiring:
// an experiment run through the facade traces into the tracer attached
// to the shared engine.
func TestFacadeSpanTracerAccessors(t *testing.T) {
	if defaultEngine.Spans() != nil {
		t.Fatal("shared engine has a tracer before attach")
	}
	tr := spans.New()
	defaultEngine.SetSpans(tr)
	defer defaultEngine.SetSpans(nil)
	if err := RunExperiment(context.Background(), "table2", ExperimentOptions{CommonOptions: CommonOptions{Scale: "test"}}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	by := map[string]int{}
	for _, d := range tr.Spans() {
		by[d.Name]++
	}
	if by["render"] == 0 {
		t.Errorf("experiment left no render span (have %v)", by)
	}
}
