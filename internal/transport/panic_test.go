package transport

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/spans"
	"hbat/internal/store"
)

// lockedBuffer is a log sink the test reads while workers may write.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestPanickingSpecFailsAndTheDaemonServesOn: a spec whose simulation
// panics — here from inside the engine's memoized run, so the panic
// crosses the engine's singleflight on its way out — fails alone, with
// an error naming the panic, an error-level log record carrying the
// stack, and a panic span on the job. Its sibling spec succeeds, the
// same spec succeeds when asked again (nothing is left wedged on its
// key), the worker serves the next job, and the drain leaves no
// goroutine behind.
func TestPanickingSpecFailsAndTheDaemonServesOn(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := context.Background()
	eng := engine.New()
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	tracer := spans.New()
	eng.SetSpans(tracer)
	svc, err := New(Config{
		Engine: eng, Store: st, Workers: 2, Spans: tracer,
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	armed.Store(true)
	svc.pool.run = func(ctx context.Context, spec engine.RunSpec) engine.RunResult {
		if spec.Workload == "espresso" && armed.CompareAndSwap(true, false) {
			spec.ProgressEvery = 1
			spec.Progress = func(int64, uint64) { panic("injected fault") }
		}
		return eng.Run(ctx, spec)
	}
	ts := httptest.NewServer(svc.Handler())
	c := api.NewClient(ts.URL)
	spec := func(workload, design string) api.SimOptions {
		return api.SimOptions{CommonOptions: api.CommonOptions{Scale: "test"}, Workload: workload, Design: design}
	}
	run := func(specs ...api.SimOptions) api.JobStatus {
		t.Helper()
		acc, err := c.Submit(ctx, api.JobRequest{Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		js, err := c.Wait(ctx, acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}

	js := run(spec("compress", "T4"), spec("espresso", "T4"))
	if js.State != api.StateFailed || js.Specs[0].State != api.StateDone || js.Specs[1].State != api.StateFailed {
		t.Fatalf("job with one panicking spec: %+v, want it failed with only that spec failed", js)
	}
	if got := js.Specs[1].Error; !strings.Contains(got, "spec panicked: injected fault") {
		t.Errorf("failed spec's error = %q, want it to name the panic", got)
	}
	if out := logs.String(); !strings.Contains(out, "level=ERROR") || !strings.Contains(out, "injected fault") ||
		!strings.Contains(out, "runtime/debug.Stack") {
		t.Errorf("no error-level log record with the panic and its stack:\n%s", out)
	}
	var panicSpan, failedRun bool
	for _, sp := range tracer.Spans() {
		switch {
		case sp.Name == "panic" && sp.Attrs["spec_key"] == js.Specs[1].SpecKey && strings.Contains(sp.Attrs["error"], "injected fault"):
			panicSpan = true
		case sp.Name == "run" && sp.Attrs["workload"] == "espresso" && sp.Attrs["error"] != "":
			failedRun = true
		}
	}
	if !panicSpan || !failedRun {
		t.Errorf("panic span on the job: %v; espresso's run span marked failed: %v; want both", panicSpan, failedRun)
	}

	js = run(spec("espresso", "T4"), spec("xlisp", "M8"))
	if js.State != api.StateDone {
		t.Fatalf("the job after the panic: %+v, want done", js)
	}

	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after the drain", before, n)
	}
}
