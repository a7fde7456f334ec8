package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hbat/internal/engine"
	"hbat/internal/spans"
)

// TestDebugSpansEndpoint checks the live span view: 404 when span
// tracing is off (it is strictly opt-in), and a JSON snapshot of open
// spans (with ages) plus the recent ring when it is on.
func TestDebugSpansEndpoint(t *testing.T) {
	off := &Server{cfg: Config{}, start: time.Now()}
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("tracer-less /debug/spans = %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "-spans") {
		t.Errorf("404 body should point at the -spans flag: %q", rec.Body.String())
	}

	tr := spans.New()
	rt := tr.NewTrace()
	root := tr.Start(rt, nil, "run").SetAttr("workload", "compress")
	tr.Start(rt, root, "simulate").End()

	on := &Server{cfg: Config{Spans: tr}, start: time.Now()}
	rec = httptest.NewRecorder()
	on.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/spans = %d, want 200", rec.Code)
	}
	var body struct {
		Open   []spans.OpenSpan `json:"open"`
		Recent []spans.SpanData `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad /debug/spans JSON: %v\n%s", err, rec.Body.String())
	}
	if len(body.Open) != 1 || body.Open[0].Name != "run" || body.Open[0].Attrs["workload"] != "compress" {
		t.Errorf("open spans = %+v, want the in-flight run", body.Open)
	}
	if body.Open[0].AgeUS < 0 {
		t.Errorf("open span age = %d, want >= 0", body.Open[0].AgeUS)
	}
	if len(body.Recent) != 1 || body.Recent[0].Name != "simulate" {
		t.Errorf("recent spans = %+v, want the finished simulate", body.Recent)
	}

	// The index advertises the endpoint.
	rec = httptest.NewRecorder()
	on.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), "/debug/spans") {
		t.Error("index page does not list /debug/spans")
	}
}

// TestHealthReadyDuringDrain is the shutdown-flap test: probes hammer
// /health and /ready while a sweep is cancelled mid-flight, and after
// the last run drains the engine must settle idle — /ready 503 once
// the binary stops accepting, but /health 200 even when the watchdog
// has long expired (a finished sweep is not a wedged one), with no
// goroutine leaked by the drain.
func TestHealthReadyDuringDrain(t *testing.T) {
	eng := engine.New()
	wd := NewWatchdog(time.Minute)
	eng.SetHeartbeat(wd.Touch)
	srv := &Server{cfg: Config{Engine: eng, Watchdog: wd}, start: time.Now()}
	h := srv.Handler()

	before := runtime.NumGoroutine()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var probeErr error
	fail := func(format string, args ...any) {
		mu.Lock()
		if probeErr == nil {
			probeErr = fmt.Errorf(format, args...)
		}
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/health", "/ready"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				var v map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					fail("%s returned invalid JSON: %v", path, err)
					return
				}
				// The watchdog is fresh throughout the drain: /health
				// must never flap to 503-wedged.
				if path == "/health" && rec.Code != http.StatusOK {
					fail("/health = %d (%v) during drain", rec.Code, v)
					return
				}
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	// The sweep may finish cleanly or be cut short; either way it must
	// drain completely.
	_, _ = eng.RunAll(ctx, testSpecs(), 2, nil)
	eng.SetAccepting(false) // what binaries do once their context ends
	close(stop)
	wg.Wait()
	if probeErr != nil {
		t.Fatal(probeErr)
	}

	st := eng.State()
	if st.Active != 0 || st.Queued != 0 {
		t.Fatalf("engine not drained: %+v", st)
	}

	// Draining: not ready, but alive.
	get := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	if get("/ready") != http.StatusServiceUnavailable {
		t.Error("draining engine still ready")
	}
	if get("/health") != http.StatusOK {
		t.Error("drained engine reported unhealthy")
	}

	// Even with the watchdog expired for an hour, an idle drained
	// engine is healthy: the last run finished, nothing is wedged.
	now := time.Unix(5000, 0)
	expired := &Watchdog{timeout: time.Second, now: func() time.Time { return now }}
	expired.Touch()
	now = now.Add(time.Hour)
	late := &Server{cfg: Config{Engine: eng, Watchdog: expired}, start: now}
	rec := httptest.NewRecorder()
	late.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("post-drain /health flapped to %d with expired watchdog: %s", rec.Code, rec.Body.String())
	}

	// The drain left no workers behind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked across drain: %d before, %d after", before, n)
	}
}
