package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hbat/internal/engine"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

func testSpecs() []engine.RunSpec {
	var specs []engine.RunSpec
	for _, w := range []string{"espresso", "perl"} {
		for _, d := range []string{"T4", "T1", "M8"} {
			specs = append(specs, engine.RunSpec{
				Workload: w, Design: d, Budget: prog.Budget32,
				Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
			})
		}
	}
	return specs
}

// TestMetricsScrapeDuringSweep is the race-audit acceptance test: a
// goroutine hammers /metrics (validating every response as Prometheus
// exposition) while the engine runs a parallel sweep. Run under
// `go test -race` this proves scrapes never race the sweep's writers.
func TestMetricsScrapeDuringSweep(t *testing.T) {
	eng := engine.New()
	wd := NewWatchdog(time.Minute)
	eng.SetHeartbeat(wd.Touch)
	srv := &Server{cfg: Config{Engine: eng, Watchdog: wd}, start: time.Now()}
	h := srv.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var scrapeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if _, err := ParseExposition(rec.Body); err != nil {
				mu.Lock()
				scrapeErr = err
				mu.Unlock()
				return
			}
		}
	}()

	results, err := eng.RunAll(context.Background(), testSpecs(), 4, nil)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if scrapeErr != nil {
		t.Fatalf("mid-sweep scrape produced invalid exposition: %v", scrapeErr)
	}

	// After the sweep the scrape must carry the merged run metrics, the
	// settled gauges, and per-workload wall histograms.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"hbat_sweep_runs_queued 0",
		"hbat_sweep_runs_active 0",
		"hbat_sweep_runs_done 6",
		"hbat_sweep_accepting 1",
		"hbat_obs_healthy 1",
		"hbat_tlb_lookups",
		`hbat_sweep_run_wall_ms_bucket{workload="espresso",le="+Inf"}`,
		`hbat_sweep_run_wall_ms_count{workload="perl"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-sweep scrape missing %q", want)
		}
	}
}

// TestHealthFlipsWhenWatchdogExpires drives the watchdog's clock by
// hand: /health is 200 while progress is fresh, 503 once the timeout
// passes with work still in flight, and 200 again after a Touch.
func TestHealthFlipsWhenWatchdogExpires(t *testing.T) {
	now := time.Unix(1000, 0)
	wd := &Watchdog{timeout: time.Minute, now: func() time.Time { return now }}
	wd.Touch()
	// No engine: the watchdog alone decides (treated as always active).
	srv := &Server{cfg: Config{Watchdog: wd}, start: now}
	h := srv.Handler()

	get := func() (int, map[string]any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad /health JSON: %v", err)
		}
		return rec.Code, body
	}

	if code, body := get(); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("fresh watchdog: %d %v", code, body)
	}
	now = now.Add(2 * time.Minute)
	if code, body := get(); code != http.StatusServiceUnavailable || body["status"] != "wedged" {
		t.Fatalf("expired watchdog: %d %v", code, body)
	}
	if age := wd.Age(); age != 2*time.Minute {
		t.Errorf("Age = %v, want 2m", age)
	}
	wd.Touch()
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("touched watchdog still unhealthy: %d", code)
	}
}

// TestHealthIgnoresIdleEngine: an expired watchdog with no queued or
// active work is not wedged — the sweep simply finished.
func TestHealthIgnoresIdleEngine(t *testing.T) {
	now := time.Unix(1000, 0)
	wd := &Watchdog{timeout: time.Second, now: func() time.Time { return now }}
	wd.Touch()
	now = now.Add(time.Hour)
	srv := &Server{cfg: Config{Engine: engine.New(), Watchdog: wd}, start: now}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("idle engine reported wedged: %d %s", rec.Code, rec.Body)
	}
}

func TestReadyTracksEngineAccepting(t *testing.T) {
	eng := engine.New()
	srv := &Server{cfg: Config{Engine: eng}, start: time.Now()}
	h := srv.Handler()

	get := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/ready", nil))
		return rec.Code
	}
	if get() != http.StatusOK {
		t.Error("fresh engine not ready")
	}
	eng.SetAccepting(false)
	if get() != http.StatusServiceUnavailable {
		t.Error("draining engine still ready")
	}
	eng.SetAccepting(true)
	if get() != http.StatusOK {
		t.Error("re-accepting engine not ready")
	}
}

// TestServerEndToEnd exercises the real listener path: Start binds a
// port, /metrics and /debug/pprof respond over HTTP, Close stops it.
func TestServerEndToEnd(t *testing.T) {
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, path := range []string{"/metrics", "/health", "/ready", "/debug/pprof/", "/"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// The second scrape parses and counts both.
	if body := scrape(t, "http://"+srv.Addr()); !strings.Contains(body, "hbat_obs_scrapes 2") {
		t.Errorf("scrape counter not incremented:\n%s", body)
	}
}
