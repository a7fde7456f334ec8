package engine

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
)

// TestEngineLiveStateSettles pins the observability surface a finished
// sweep must present: gauges settled (queued=0, active=0, done=N), the
// provenance log complete, every run counted as executed, and
// per-workload wall-time histograms covering every executed run.
func TestEngineLiveStateSettles(t *testing.T) {
	eng := New()
	specs := sweepTestSpecs()
	results, err := eng.RunAll(context.Background(), specs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	st := eng.State()
	if st.Queued != 0 || st.Active != 0 || st.Done != int64(len(specs)) {
		t.Errorf("state = %+v, want queued 0, active 0, done %d", st, len(specs))
	}
	if !st.Accepting {
		t.Error("engine not accepting after sweep")
	}
	if st.Executed != uint64(len(specs)) {
		t.Errorf("executed = %d, want %d", st.Executed, len(specs))
	}

	log := eng.RunLog()
	if len(log) != len(specs) {
		t.Fatalf("%d run records, want %d", len(log), len(specs))
	}
	seenIDs := map[uint64]bool{}
	for _, r := range log {
		if seenIDs[r.RunID] {
			t.Errorf("duplicate run id %d", r.RunID)
		}
		seenIDs[r.RunID] = true
		if r.SpecHash == "" || r.Workload == "" || r.Design == "" {
			t.Errorf("incomplete record: %+v", r)
		}
	}

	// Wall histograms: one metric per workload, counts covering the
	// executed runs (3 designs each).
	byWorkload := map[string]uint64{}
	for _, m := range eng.WallTimes() {
		byWorkload[m.Name] = m.Count
	}
	if byWorkload["espresso"] != 3 || byWorkload["perl"] != 3 {
		t.Errorf("wall histogram counts = %v, want 3 per workload", byWorkload)
	}
}

// TestEngineRunLoggerEmitsRunScopedRecords checks the slog plumbing:
// with a logger attached, each run emits a structured completion record
// carrying the run-scoped attributes.
func TestEngineRunLoggerEmitsRunScopedRecords(t *testing.T) {
	var buf bytes.Buffer
	eng := New()
	eng.SetLogger(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))

	spec := sweepTestSpecs()[0]
	ctx := context.Background()
	if r := eng.Run(ctx, spec); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := eng.Run(ctx, spec); r.Err != nil {
		t.Fatal(r.Err)
	}

	out := buf.String()
	for _, want := range []string{
		`"msg":"run finished"`,
		`"workload":"espresso"`,
		`"design":"T4"`,
		`"spec_hash":`,
		`"run_id":`,
		`"seed":1`,
		`"cache":"miss"`,
		`"cache":"hit"`,
		`"wall_ms":`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %s:\n%s", want, out)
		}
	}
}

// TestEngineHeartbeatFires checks the watchdog hook: dispatch, progress
// ticks, and completion all touch the heartbeat.
func TestEngineHeartbeatFires(t *testing.T) {
	beats := 0
	eng := New()
	eng.SetHeartbeat(func() { beats++ }) // Run is called serially here
	spec := sweepTestSpecs()[0]
	spec.ProgressEvery = 1000
	if r := eng.Run(context.Background(), spec); r.Err != nil {
		t.Fatal(r.Err)
	}
	if beats < 3 {
		t.Errorf("heartbeat fired %d times, want >= 3 (dispatch, ticks, completion)", beats)
	}
}
