// Package obs is the opt-in observability layer of the sweep service:
// an HTTP server exposing live Prometheus metrics (/metrics), health
// and readiness probes (/health, /ready), and the Go profiler
// (/debug/pprof), plus the shared -obs/-log-level/-log-format flag
// helper and the structured-log plumbing every cmd/hbat* binary uses.
//
// The server is strictly opt-in: without the -obs flag no listener is
// opened and no goroutine started, and the simulator's hot path is
// untouched either way — scrapes read only the sweep engine's
// lock-protected aggregates (Engine.LiveMetrics, Engine.State), never a
// live machine's registry.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"hbat/internal/engine"
	"hbat/internal/runspan"
)

// Config wires a Server to its data sources. Every field is optional
// except Addr.
type Config struct {
	// Addr is the listen address (e.g. ":8090", "127.0.0.1:0").
	Addr string
	// Engine, when non-nil, contributes sweep state: live run gauges,
	// cache counters and hit ratios, ETA, the merged per-run metrics
	// registry, and per-workload wall-time histograms.
	Engine *engine.Engine
	// Spans, when non-nil, serves the live span view at /debug/spans:
	// currently open spans with their ages plus the recent-span ring.
	Spans *runspan.Tracer
	// Watchdog, when non-nil, drives /health and the
	// obs_last_progress_age_seconds metric.
	Watchdog *Watchdog
	// Ready, when non-nil, overrides the /ready verdict (default: the
	// engine's Accepting state, or true without an engine).
	Ready func() bool
	// Extra, when non-nil, contributes additional metric families per
	// scrape.
	Extra func() []Family
	// Logger, when non-nil, receives one debug record per request.
	Logger *slog.Logger
}

// Server is a running observability server. Create one with Start;
// stop it with Close.
type Server struct {
	cfg     Config
	ln      net.Listener
	http    *http.Server
	start   time.Time
	scrapes atomic.Uint64
}

// NewHandler returns the observability routing table for cfg without
// opening a listener or goroutine — for mounting the obs endpoints on
// another server's mux (cmd/hbatd serves them next to the job API).
func NewHandler(cfg Config) http.Handler {
	s := &Server{cfg: cfg, start: time.Now()}
	return s.Handler()
}

// Start opens the listener and serves in a background goroutine.
func Start(cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	s := &Server{cfg: cfg, ln: ln, start: time.Now()}
	s.http = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go s.http.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.http.Close() }

// Handler returns the server's routing table; exported so tests can
// drive the endpoints without a listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/health", s.handleHealth)
	mux.HandleFunc("/ready", s.handleReady)
	mux.HandleFunc("/debug/spans", s.handleSpans)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if s.cfg.Logger == nil {
		return mux
	}
	lg := s.cfg.Logger
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		mux.ServeHTTP(w, r)
		lg.Debug("obs request", "method", r.Method, "path", r.URL.Path,
			"wall_ms", float64(time.Since(t0).Microseconds())/1e3)
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, `hbat observability server
  /metrics      Prometheus text exposition (sweep + run metrics)
  /health       liveness (progress watchdog)
  /ready        readiness (engine accepting work)
  /debug/spans  live span view (open spans with ages + recent ring)
  /debug/pprof  Go profiler
`)
}

// families assembles every exported metric family for one scrape.
func (s *Server) families() []Family {
	fams := []Family{
		{Name: "hbat_obs_scrapes", Kind: "counter",
			Help:   "Scrapes of /metrics since the server started.",
			Series: []Series{{Value: float64(s.scrapes.Load())}}},
		{Name: "hbat_obs_uptime_seconds", Kind: "gauge",
			Help:   "Seconds since the observability server started.",
			Series: []Series{{Value: time.Since(s.start).Seconds()}}},
		{Name: "hbat_process_goroutines", Kind: "gauge",
			Help:   "Live goroutines in the process.",
			Series: []Series{{Value: float64(runtime.NumGoroutine())}}},
	}
	if wd := s.cfg.Watchdog; wd != nil {
		healthy := 1.0
		if s.wedged() {
			healthy = 0
		}
		fams = append(fams,
			Family{Name: "hbat_obs_last_progress_age_seconds", Kind: "gauge",
				Help:   "Seconds since the sweep engine last reported progress.",
				Series: []Series{{Value: wd.Age().Seconds()}}},
			Family{Name: "hbat_obs_healthy", Kind: "gauge",
				Help:   "1 while the progress watchdog is satisfied, 0 when wedged.",
				Series: []Series{{Value: healthy}}},
		)
	}
	if e := s.cfg.Engine; e != nil {
		st := e.State()
		ratio := func(hits, misses uint64) float64 {
			if hits+misses == 0 {
				return 0
			}
			return float64(hits) / float64(hits+misses)
		}
		accepting := 0.0
		if st.Accepting {
			accepting = 1
		}
		fams = append(fams,
			Family{Name: "hbat_sweep_runs_queued", Kind: "gauge",
				Help:   "Dispatched simulation requests waiting for a worker.",
				Series: []Series{{Value: float64(st.Queued)}}},
			Family{Name: "hbat_sweep_runs_active", Kind: "gauge",
				Help:   "Simulations executing right now.",
				Series: []Series{{Value: float64(st.Active)}}},
			Family{Name: "hbat_sweep_runs_done", Kind: "gauge",
				Help:   "Completed simulation requests (executed, cached, or cancelled).",
				Series: []Series{{Value: float64(st.Done)}}},
			Family{Name: "hbat_sweep_accepting", Kind: "gauge",
				Help:   "1 while the engine accepts new work, 0 while draining.",
				Series: []Series{{Value: accepting}}},
			Family{Name: "hbat_sweep_build_cache_hit_ratio", Kind: "gauge",
				Help:   "Workload build requests served from the build cache.",
				Series: []Series{{Value: ratio(st.Cache.BuildHits, st.Cache.BuildMisses)}}},
			Family{Name: "hbat_sweep_spec_cache_hit_ratio", Kind: "gauge",
				Help:   "Simulation requests served from the RunSpec memo.",
				Series: []Series{{Value: ratio(st.Cache.SpecHits, st.Cache.SpecMisses)}}},
			Family{Name: "hbat_sweep_eta_seconds", Kind: "gauge",
				Help:   "EWMA-cost-weighted estimate of the current sweep's remaining wall time.",
				Series: []Series{{Value: st.ETASeconds}}},
			Family{Name: "hbat_sweep_elapsed_seconds", Kind: "gauge",
				Help:   "Wall time the current sweep has been running.",
				Series: []Series{{Value: st.ElapsedSeconds}}},
			Family{Name: "hbat_sweep_progress_runs", Kind: "gauge",
				Help:   "Completed runs of the current sweep (see hbat_sweep_progress_total_runs).",
				Series: []Series{{Value: float64(st.SweepDone)}}},
			Family{Name: "hbat_sweep_progress_total_runs", Kind: "gauge",
				Help:   "Total runs of the current sweep.",
				Series: []Series{{Value: float64(st.SweepTotal)}}},
		)
		fams = append(fams, SnapshotFamilies(e.MetricsSnapshot())...)
		fams = append(fams, SnapshotFamilies(e.LiveMetrics())...)
		wallFam := Family{Name: "hbat_sweep_run_wall_ms", Kind: "histogram",
			Help: "Wall time of executed simulations, by workload (milliseconds)."}
		for _, m := range e.WallTimes() {
			wallFam.Hists = append(wallFam.Hists, HistSeries{
				Labels: []Label{{"workload", m.Name}},
				Bounds: m.Bounds,
				Counts: m.Buckets,
				Sum:    float64(m.Sum),
				Count:  m.Count,
			})
		}
		if len(wallFam.Hists) > 0 {
			fams = append(fams, wallFam)
		}
	}
	if s.cfg.Extra != nil {
		fams = append(fams, s.cfg.Extra()...)
	}
	return fams
}

// WriteSnapshot writes one scrape's worth of exposition for cfg
// without starting a server — what /metrics would serve right now.
// Used by promcheck -static to validate the full metrics pipeline
// (engine aggregates through text exposition) in-process.
func WriteSnapshot(w io.Writer, cfg Config) error {
	s := &Server{cfg: cfg, start: time.Now()}
	return WriteExposition(w, s.families())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapes.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WriteExposition(w, s.families()); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Warn("metrics exposition failed", "error", err.Error())
	}
}

// wedged reports whether the watchdog indicates a stuck sweep: the
// timeout expired while work was in flight. An idle engine is healthy
// no matter how long ago the last run finished.
func (s *Server) wedged() bool {
	wd := s.cfg.Watchdog
	if wd == nil || !wd.Expired() {
		return false
	}
	if e := s.cfg.Engine; e != nil {
		st := e.State()
		return st.Active > 0 || st.Queued > 0
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status                 string  `json:"status"`
		LastProgressAgeSeconds float64 `json:"last_progress_age_seconds"`
		WatchdogSeconds        float64 `json:"watchdog_seconds"`
		ActiveRuns             int64   `json:"active_runs"`
		QueuedRuns             int64   `json:"queued_runs"`
	}
	h := health{Status: "ok"}
	if wd := s.cfg.Watchdog; wd != nil {
		h.LastProgressAgeSeconds = wd.Age().Seconds()
		h.WatchdogSeconds = wd.Timeout().Seconds()
	}
	if e := s.cfg.Engine; e != nil {
		st := e.State()
		h.ActiveRuns, h.QueuedRuns = st.Active, st.Queued
	}
	code := http.StatusOK
	if s.wedged() {
		h.Status = "wedged"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleSpans serves the live span view: every currently open span
// with its age (a stuck singleflight build shows up as a growing
// age), plus the ring of recently finished spans. 404 without a span
// tracer, mirroring how span tracing is strictly opt-in.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	tr := s.cfg.Spans
	if !tr.Enabled() {
		http.Error(w, "span tracing off (run with -spans)", http.StatusNotFound)
		return
	}
	type spans struct {
		Open   []runspan.OpenSpan `json:"open"`
		Recent []runspan.SpanData `json:"recent"`
	}
	writeJSON(w, http.StatusOK, spans{Open: tr.Open(), Recent: tr.Recent()})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := true
	switch {
	case s.cfg.Ready != nil:
		ready = s.cfg.Ready()
	case s.cfg.Engine != nil:
		ready = s.cfg.Engine.Accepting()
	}
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]bool{"ready": ready})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
