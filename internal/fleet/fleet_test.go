package fleet_test

// The fleet coordinator's fault-injection battery: every test spins
// real hbatd worker stacks through the fleettest rig, drives them
// through a real coordinator over loopback HTTP, and injects the
// faults a production fleet meets — crash mid-spec, hang, slow,
// corrupt artifact bytes, graceful drain mid-job, and the whole fleet
// going dark. The invariants under test:
//
//   - jobs complete with verifiable artifacts despite single-worker
//     faults (the retry machinery re-runs work elsewhere);
//   - no spec is submitted to two workers unless the coordinator
//     recorded a retry for it (Attempts > 1 and a "retry" span);
//   - all workers down is a typed, fast 503 — not a hang;
//   - nothing leaks goroutines, under -race.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/fleet"
	"hbat/internal/fleet/fleettest"
	"hbat/internal/spans"
	"hbat/internal/store"
)

// guardGoroutines registers a leak check that runs after every other
// cleanup (rig teardown, coordinator shutdown): the goroutine count
// must return to near its pre-test level within a polling deadline.
func guardGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+3 {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	})
}

// newCoord builds a coordinator over the rig's workers with test-speed
// probing and retries, serves it over loopback, and returns an API
// client against it plus the coordinator's span tracer.
func newCoord(t testing.TB, rig *fleettest.Rig, mod func(*fleet.Config)) (*fleet.Coordinator, *api.Client, *spans.Tracer) {
	t.Helper()
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tracer := spans.New()
	cfg := fleet.Config{
		Workers:        rig.Addrs(),
		Store:          st,
		ProbeEvery:     25 * time.Millisecond,
		ProbeTimeout:   250 * time.Millisecond,
		DownAfter:      2,
		RequestTimeout: 2 * time.Second,
		BatchTimeout:   30 * time.Second,
		RetryMax:       3,
		RetryBackoff:   10 * time.Millisecond,
		Spans:          tracer,
	}
	if mod != nil {
		mod(&cfg)
	}
	coord, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := coord.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		srv.Close()
	})
	return coord, api.NewClient(srv.URL), tracer
}

// seedSpecs returns n distinct cheap specs (one per seed), each its
// own affinity group so they spread across the fleet.
func seedSpecs(n int) []api.SimOptions {
	return seedSpecsScale(n, "test")
}

// seedSpecsScale is seedSpecs at a chosen scale — fault tests that
// must catch a worker mid-simulation use "small" (~150ms a spec, a
// real window) where everything else stays on the fast "test" scale.
func seedSpecsScale(n int, scale string) []api.SimOptions {
	specs := make([]api.SimOptions, n)
	for i := range specs {
		specs[i] = api.SimOptions{
			CommonOptions: api.CommonOptions{Scale: scale, Seed: uint64(i + 1)},
			Workload:      "compress",
			Design:        "T4",
		}
	}
	return specs
}

// waitJob waits for a job's terminal status.
func waitJob(t *testing.T, cl *api.Client, id string) api.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

// assertNoDuplicateRuns checks the battery's core invariant: a spec
// submitted to more than one worker must carry a recorded retry.
func assertNoDuplicateRuns(t *testing.T, rig *fleettest.Rig, st api.JobStatus) {
	t.Helper()
	attempts := make(map[string]int)
	for _, s := range st.Specs {
		if s.Attempts > attempts[s.SpecKey] {
			attempts[s.SpecKey] = s.Attempts
		}
	}
	for key, workers := range rig.TotalSubmissions() {
		if workers > 1 && attempts[key] < 2 {
			t.Errorf("spec %s was submitted to %d workers with only %d recorded attempts",
				key, workers, attempts[key])
		}
	}
}

// assertArtifacts fetches every done spec's artifact from the
// coordinator and verifies it hashes to the reported SHA-256.
func assertArtifacts(t *testing.T, cl *api.Client, st api.JobStatus) {
	t.Helper()
	ctx := context.Background()
	for _, s := range st.Specs {
		if s.State != api.StateDone {
			continue
		}
		data, etag, err := cl.Result(ctx, s.SpecKey)
		if err != nil {
			t.Errorf("result %s: %v", s.SpecKey, err)
			continue
		}
		if sha := engine.ArtifactSHA256(data); sha != s.SHA256 || etag != s.SHA256 {
			t.Errorf("spec %s: artifact sha %s, etag %s, status sha %s", s.SpecKey, sha, etag, s.SHA256)
		}
	}
}

// retrySpans returns the coordinator's recorded retry spans for a
// trace, keyed by nothing — callers assert on count and attrs.
func retrySpans(tracer *spans.Tracer, traceID string) []spans.SpanData {
	var out []spans.SpanData
	for _, d := range tracer.SpansForTrace(traceID) {
		if d.Name == "retry" {
			out = append(out, d)
		}
	}
	return out
}

func assertRetrySpans(t *testing.T, tracer *spans.Tracer, traceID string, wantSome bool) {
	t.Helper()
	got := retrySpans(tracer, traceID)
	if wantSome && len(got) == 0 {
		t.Error("no retry spans recorded in the coordinator journal")
	}
	if !wantSome && len(got) > 0 {
		t.Errorf("unexpected retry spans: %d", len(got))
	}
	for _, d := range got {
		if d.Attrs["attempt"] == "" || d.Attrs["worker"] == "" || d.Attrs["spec_key"] == "" {
			t.Errorf("retry span missing attrs: %+v", d.Attrs)
		}
	}
}

// pollStatus polls a job until cond holds (or the deadline passes).
func pollStatus(t *testing.T, cl *api.Client, id string, d time.Duration, cond func(api.JobStatus) bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	for {
		st, err := cl.Job(ctx, id)
		if err == nil && cond(st) {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("condition never held for job %s", id)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestFleetCrashMidSpec kills a worker (listener and connections
// severed, like kill -9) while its engine is mid-simulation. The
// coordinator must retry that worker's unfinished specs elsewhere and
// still complete the job with verifiable artifacts.
func TestFleetCrashMidSpec(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 3)
	_, cl, tracer := newCoord(t, rig, nil)

	ctx := context.Background()
	acc, err := cl.Submit(ctx, api.JobRequest{Specs: seedSpecsScale(8, "small")})
	if err != nil {
		t.Fatal(err)
	}

	// Crash the first worker caught mid-simulation: at "small" scale a
	// spec runs long enough that the poll reliably lands inside one.
	crashed := ""
	deadline := time.Now().Add(10 * time.Second)
	for crashed == "" && time.Now().Before(deadline) {
		for _, w := range rig.Workers {
			if w.Engine.State().Active > 0 {
				w.Crash()
				crashed = w.Addr
				break
			}
		}
	}
	if crashed == "" {
		t.Fatal("no worker was ever observed mid-simulation")
	}

	st := waitJob(t, cl, acc.ID)
	if st.State != api.StateDone {
		t.Fatalf("job state %s after crash, want done: %+v", st.State, st.Specs)
	}
	retried := 0
	for _, s := range st.Specs {
		if s.Attempts > 1 {
			retried++
			if s.Worker == crashed {
				t.Errorf("spec %s retried back onto the crashed worker", s.SpecKey)
			}
		}
	}
	if retried == 0 {
		t.Error("crash mid-spec caused no retries")
	}
	assertRetrySpans(t, tracer, acc.TraceID, true)
	assertNoDuplicateRuns(t, rig, st)
	assertArtifacts(t, cl, st)
}

// TestFleetPanickingSpecIsNotRetried: a spec whose run panics on every
// worker fails once, with the worker's error, and is never walked across
// the fleet. A worker that answered "failed" ran the spec; only a spec
// the coordinator lost retries.
func TestFleetPanickingSpecIsNotRetried(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 3)
	for _, w := range rig.Workers {
		w.SetFault(fleettest.FaultPanic, 0)
	}
	_, cl, tracer := newCoord(t, rig, nil)
	acc, err := cl.Submit(context.Background(), api.JobRequest{Specs: seedSpecs(1)})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, cl, acc.ID)
	s := st.Specs[0]
	if st.State != api.StateFailed || s.Attempts != 1 || !strings.Contains(s.Error, "spec panicked") {
		t.Fatalf("job %s, spec %+v; want it failed after one attempt naming the panic", st.State, s)
	}
	if n := rig.TotalSubmissions()[s.SpecKey]; n != 1 {
		t.Errorf("the panicking spec went to %d workers, want 1", n)
	}
	assertRetrySpans(t, tracer, acc.TraceID, false)
}

// TestFleetHungWorker parks every request on the only worker: the
// coordinator's per-request timeout must fail the batch (not hang the
// job), and the retry after the fault clears must complete it. The
// coordinator's merged SSE stream is watched throughout.
func TestFleetHungWorker(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 1)
	w := rig.Workers[0]
	// The coordinator's first synchronous probe must see the worker
	// healthy (a never-probed-up worker would 503 the submission);
	// the hang starts after admission, before any dispatch.
	_, cl, tracer := newCoord(t, rig, func(cfg *fleet.Config) {
		cfg.RequestTimeout = 400 * time.Millisecond
		cfg.DownAfter = 1000 // hung probes must not demote the worker in this test
		cfg.RetryMax = 5
		cfg.RetryBackoff = 50 * time.Millisecond
	})
	w.SetFault(fleettest.FaultHang, 0)

	ctx := context.Background()
	// "small"-scale specs run long enough (~150ms) that the retry
	// dispatch's worker-stream subscription is live while they execute,
	// so forwarded span events reliably reach the merged stream.
	acc, err := cl.Submit(ctx, api.JobRequest{Specs: seedSpecsScale(3, "small")})
	if err != nil {
		t.Fatal(err)
	}

	// Watch the coordinator's merged event stream while the worker is
	// stuck: subscription now, events later, so nothing is lost.
	type seen struct {
		specs, spans, dones int
		workerAttr          bool
	}
	events := make(chan seen, 1)
	go func() {
		var got seen
		_ = cl.Events(context.Background(), acc.ID, func(ev api.Event) bool {
			switch ev.Type {
			case "spec":
				got.specs++
			case "span":
				got.spans++
				if ev.Span != nil && ev.Span.Attrs["worker"] != "" {
					got.workerAttr = true
				}
			case "done":
				got.dones++
			}
			return true
		})
		events <- got
	}()

	// First attempt times out against the hung worker; clear the fault
	// once the coordinator has recorded the failure, then the retry
	// lands on a healthy worker.
	pollStatus(t, cl, acc.ID, 10*time.Second, func(st api.JobStatus) bool {
		for _, s := range st.Specs {
			if s.Error != "" {
				return true
			}
		}
		return false
	})
	w.SetFault(fleettest.FaultNone, 0)

	st := waitJob(t, cl, acc.ID)
	if st.State != api.StateDone {
		t.Fatalf("job state %s after hang recovery, want done: %+v", st.State, st.Specs)
	}
	for _, s := range st.Specs {
		if s.Attempts < 2 {
			t.Errorf("spec %s completed with %d attempts; the hang should have cost at least one", s.SpecKey, s.Attempts)
		}
		if s.Error != "" {
			t.Errorf("done spec %s still carries error %q", s.SpecKey, s.Error)
		}
	}
	assertRetrySpans(t, tracer, acc.TraceID, true)
	assertNoDuplicateRuns(t, rig, st)
	assertArtifacts(t, cl, st)

	select {
	case got := <-events:
		if got.specs == 0 || got.dones != 1 {
			t.Errorf("merged SSE stream: %d spec events, %d done events; want >0 and exactly 1", got.specs, got.dones)
		}
		if got.spans == 0 || !got.workerAttr {
			t.Errorf("merged SSE stream carried %d span events (worker attr present: %v); want forwarded worker spans", got.spans, got.workerAttr)
		}
	case <-time.After(10 * time.Second):
		t.Error("merged SSE stream never terminated")
	}
}

// TestFleetSlowWorker: a uniformly slow worker completes without
// retries — slowness under the request timeout is not a fault.
func TestFleetSlowWorker(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 1)
	rig.Workers[0].SetFault(fleettest.FaultSlow, 50*time.Millisecond)
	_, cl, tracer := newCoord(t, rig, nil)

	acc, err := cl.Submit(context.Background(), api.JobRequest{Specs: seedSpecs(3)})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, cl, acc.ID)
	if st.State != api.StateDone {
		t.Fatalf("job state %s behind a slow worker, want done", st.State)
	}
	for _, s := range st.Specs {
		if s.Attempts != 1 {
			t.Errorf("spec %s took %d attempts behind a merely-slow worker", s.SpecKey, s.Attempts)
		}
	}
	assertRetrySpans(t, tracer, acc.TraceID, false)
	assertNoDuplicateRuns(t, rig, st)
	assertArtifacts(t, cl, st)
}

// TestFleetCorruptArtifact: a worker that flips a byte in its artifact
// responses must never poison the coordinator store — the fetch is
// verified against the worker-reported hash, rejected, and the spec
// retried; once the fault clears, the re-fetch serves clean bytes.
func TestFleetCorruptArtifact(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 1)
	w := rig.Workers[0]
	w.SetFault(fleettest.FaultCorrupt, 0)
	_, cl, tracer := newCoord(t, rig, func(cfg *fleet.Config) {
		cfg.RetryMax = 5
		cfg.RetryBackoff = 50 * time.Millisecond
	})

	acc, err := cl.Submit(context.Background(), api.JobRequest{Specs: seedSpecs(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Clear the fault only after the coordinator has committed a spec
	// to a retry wave (a "retry" span exists) — clearing on the first
	// visible error could let the same attempt's reconcile re-fetch
	// succeed and complete the batch without any retry.
	retryDeadline := time.Now().Add(10 * time.Second)
	for len(retrySpans(tracer, acc.TraceID)) == 0 {
		if time.Now().After(retryDeadline) {
			t.Fatal("coordinator never recorded a retry for the corrupt artifact")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mid, err := cl.Job(context.Background(), acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	sawCorrupt := false
	for _, s := range mid.Specs {
		if strings.Contains(s.Error, "corrupt artifact from") {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Errorf("no spec carries the corrupt-artifact error mid-retry: %+v", mid.Specs)
	}
	w.SetFault(fleettest.FaultNone, 0)

	st := waitJob(t, cl, acc.ID)
	if st.State != api.StateDone {
		t.Fatalf("job state %s after corrupt-artifact recovery, want done: %+v", st.State, st.Specs)
	}
	for _, s := range st.Specs {
		if s.Attempts < 2 {
			t.Errorf("spec %s: corrupt fetch should have cost an attempt, got %d", s.SpecKey, s.Attempts)
		}
	}
	assertRetrySpans(t, tracer, acc.TraceID, true)
	assertArtifacts(t, cl, st)

	// The corrupt bytes must never have been admitted: every stored
	// artifact still verifies through the coordinator's own read path.
	for _, s := range st.Specs {
		data, sha, err := cl.Result(context.Background(), s.SpecKey)
		if err != nil {
			t.Errorf("coordinator store read %s: %v", s.SpecKey, err)
			continue
		}
		if engine.ArtifactSHA256(data) != sha {
			t.Errorf("coordinator store holds corrupt bytes for %s", s.SpecKey)
		}
	}
}

// TestFleetDrainMidJob: a worker starting its own graceful shutdown
// mid-job finishes its in-flight batch; the prober demotes it to
// draining so later waves avoid it; the job completes cleanly.
func TestFleetDrainMidJob(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 2)
	_, cl, _ := newCoord(t, rig, nil)

	acc, err := cl.Submit(context.Background(), api.JobRequest{Specs: seedSpecs(8)})
	if err != nil {
		t.Fatal(err)
	}

	var drained *fleettest.Worker
	deadline := time.Now().Add(5 * time.Second)
	for drained == nil && time.Now().Before(deadline) {
		for _, w := range rig.Workers {
			if len(w.Submitted()) > 0 {
				drained = w
				break
			}
		}
	}
	if drained == nil {
		t.Fatal("no worker ever received work")
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	drainErr := drained.Drain(dctx)

	st := waitJob(t, cl, acc.ID)
	if st.State != api.StateDone {
		t.Fatalf("job state %s through a drain, want done: %+v", st.State, st.Specs)
	}
	for _, s := range st.Specs {
		if s.State != api.StateDone {
			t.Errorf("spec %s state %s", s.SpecKey, s.State)
		}
	}
	assertNoDuplicateRuns(t, rig, st)
	assertArtifacts(t, cl, st)

	if err := <-drainErr; err != nil {
		t.Errorf("worker drain: %v", err)
	}
	// The registry reflects the drain: /ready 503 probes as draining.
	pollWorkers(t, cl, 5*time.Second, func(ws []api.Worker) bool {
		for _, w := range ws {
			if w.Addr == drained.Addr && w.State == api.WorkerDraining {
				return true
			}
		}
		return false
	})
}

func pollWorkers(t *testing.T, cl *api.Client, d time.Duration, cond func([]api.Worker) bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	for {
		fs, err := cl.Workers(ctx)
		if err == nil && cond(fs.Workers) {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatal("worker registry never reached the expected state")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestShutdownInterruptsRetryBackoff: a spec waiting out its retry
// backoff does not hold up Shutdown; the wait ends at once and the spec
// fails naming the shutdown.
func TestShutdownInterruptsRetryBackoff(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 1)
	w := rig.Workers[0]
	coord, cl, tracer := newCoord(t, rig, func(cfg *fleet.Config) {
		cfg.RequestTimeout = 300 * time.Millisecond
		cfg.RetryBackoff = time.Minute
	})
	// Hang, then crash: the first wave's batch fails, so the spec enters
	// wave 1 behind a minute of backoff.
	w.SetFault(fleettest.FaultHang, 0)
	acc, err := cl.Submit(context.Background(), api.JobRequest{Specs: seedSpecs(1)})
	if err != nil {
		t.Fatal(err)
	}
	w.Crash()
	deadline := time.Now().Add(10 * time.Second)
	for len(retrySpans(tracer, acc.TraceID)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("spec never entered a retry wave")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := coord.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during retry backoff: %v", err)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("shutdown took %v, want under 1s", wall)
	}
	st, err := cl.Job(context.Background(), acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateFailed || len(st.Specs) != 1 || !strings.Contains(st.Specs[0].Error, "shut down") {
		t.Fatalf("job after shutdown = %s %+v, want failed naming the shutdown", st.State, st.Specs)
	}
}

// TestFleetAllWorkersDown: with every worker dead, submission is a
// fast typed 503 — and a job in flight when the fleet dies fails its
// remaining specs with the same typed reason instead of hanging.
func TestFleetAllWorkersDown(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 1)
	w := rig.Workers[0]
	_, cl, _ := newCoord(t, rig, func(cfg *fleet.Config) {
		cfg.RequestTimeout = 300 * time.Millisecond
		cfg.RetryMax = 6
		cfg.RetryBackoff = 100 * time.Millisecond
	})
	// Hang the (probed-up) worker before submitting so no spec can
	// complete before the crash below takes the whole fleet down.
	w.SetFault(fleettest.FaultHang, 0)

	// Submit while the worker still probes up, then kill it: the job
	// must fail with the typed no-workers reason once the prober
	// notices, not spin forever.
	acc, err := cl.Submit(context.Background(), api.JobRequest{Specs: seedSpecs(2)})
	if err != nil {
		t.Fatal(err)
	}
	w.Crash()
	st := waitJob(t, cl, acc.ID)
	if st.State != api.StateFailed {
		t.Fatalf("job state %s with the whole fleet down, want failed", st.State)
	}
	sawTyped := false
	for _, s := range st.Specs {
		if s.State != api.StateFailed {
			t.Errorf("spec %s state %s, want failed", s.SpecKey, s.State)
		}
		if strings.Contains(s.Error, fleet.ErrNoWorkers.Error()) {
			sawTyped = true
		}
	}
	if !sawTyped {
		t.Errorf("no spec carries the typed no-workers error; statuses: %+v", st.Specs)
	}

	// With the registry settled on down, a fresh submission is a fast
	// typed 503.
	pollWorkers(t, cl, 5*time.Second, func(ws []api.Worker) bool {
		return len(ws) == 1 && ws[0].State == api.WorkerDown
	})
	start := time.Now()
	_, err = cl.Submit(context.Background(), api.JobRequest{Specs: seedSpecs(1)})
	if err == nil {
		t.Fatal("submission with no live workers accepted")
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit error = %v, want typed 503", err)
	}
	if !strings.Contains(apiErr.Message, fleet.ErrNoWorkers.Error()) {
		t.Fatalf("503 message %q does not carry the typed reason", apiErr.Message)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("no-workers rejection took %v, want fast-fail", wall)
	}
}
