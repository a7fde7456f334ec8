// Package fleettest is the fault-injection fabric rig behind the fleet
// coordinator's test battery: it spins N real hbatd worker stacks
// (engine, store, transport service, obs endpoints — the exact mount
// cmd/hbatd performs) on loopback httptest servers, wrapped in a
// middleware that can inject the faults a production fleet meets:
//
//   - Crash: the worker's listener and connections drop mid-request,
//     as a kill -9 would; the in-process engine may keep simulating,
//     but no byte leaves the worker again.
//   - Hang: requests park until the client gives up (or the fault is
//     cleared) — the stuck-but-alive worker.
//   - Slow: every request sleeps first — the overloaded worker.
//   - Corrupt: artifact responses come back with a flipped byte — the
//     worker (or path) that silently damages result bytes.
//   - Drain: the worker's own graceful shutdown mid-job, so /ready
//     reports 503 while in-flight work completes.
//   - Panic: every spec the worker simulates panics inside the engine
//     — what a spec that crashes the simulator looks like from outside.
//
// The middleware also records every spec key each worker was asked to
// run, which is what lets the battery assert the no-duplicate-run
// invariant: no spec executes on two workers unless the coordinator
// recorded a retry for it.
package fleettest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/obs"
	"hbat/internal/runspan"
	"hbat/internal/store"
	"hbat/internal/transport"
)

// Fault selects a worker's injected failure mode.
type Fault int

const (
	// FaultNone serves normally.
	FaultNone Fault = iota
	// FaultHang parks every request until the fault is cleared or the
	// client's context ends.
	FaultHang
	// FaultSlow delays every request by the rig's SlowBy.
	FaultSlow
	// FaultCorrupt flips a byte in every /v1/results response body.
	FaultCorrupt
	// FaultPanic panics every run the worker's engine starts.
	FaultPanic
)

// Worker is one live hbatd stack under test.
type Worker struct {
	// Addr is the worker's base URL ("http://127.0.0.1:port").
	Addr string
	// Engine/Store/Service are the worker's real internals — tests
	// reach in to time faults (engine.State().Active) and to assert
	// cache behaviour (engine.CacheStats().CkptHits).
	Engine  *engine.Engine
	Store   *store.Store
	Service *transport.Service
	// Tracer is the worker's span tracer (always on in the rig, so
	// worker journals exist for merged-timeline assertions).
	Tracer *runspan.Tracer

	srv    *httptest.Server
	mu     sync.Mutex
	fault  Fault
	slowBy time.Duration
	// hangers releases parked FaultHang requests when closed; replaced
	// on every SetFault so each hang wave has its own release.
	hangers chan struct{}
	// submitted counts submissions per spec key — the evidence for the
	// no-duplicate-run invariant.
	submitted map[string]int
	crashed   bool
}

// Rig is a loopback fleet of real workers.
type Rig struct {
	Workers []*Worker
	t       testing.TB
}

// New builds n workers and registers their teardown with t.Cleanup
// (drain with a bounded context, then close). Every worker traces
// spans into an in-memory journal.
func New(t testing.TB, n int) *Rig {
	t.Helper()
	r := &Rig{t: t}
	for i := 0; i < n; i++ {
		r.Workers = append(r.Workers, newWorker(t))
	}
	return r
}

// Addrs returns every worker's base URL, in creation order.
func (r *Rig) Addrs() []string {
	addrs := make([]string, len(r.Workers))
	for i, w := range r.Workers {
		addrs[i] = w.Addr
	}
	return addrs
}

func newWorker(t testing.TB) *Worker {
	t.Helper()
	eng := engine.New()
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tracer := runspan.New(runspan.Config{})
	if err := tracer.SetJournal(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// The engine shares the worker's tracer, exactly as obs.Flags.Setup
	// wires a real hbatd: engine "run" root spans feed the worker's SSE
	// span events, which the coordinator fans into its merged stream.
	eng.SetSpans(tracer)
	svc, err := transport.New(transport.Config{
		Engine: eng,
		Store:  st,
		Logger: slog.New(slog.DiscardHandler),
		Spans:  tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{
		Engine: eng, Store: st, Service: svc, Tracer: tracer,
		hangers:   make(chan struct{}),
		submitted: make(map[string]int),
	}
	// The engine beats its heartbeat as each run starts, on the
	// goroutine that runs the spec.
	eng.SetHeartbeat(func() {
		w.mu.Lock()
		fault := w.fault
		w.mu.Unlock()
		if fault == FaultPanic {
			panic("fleettest: injected panic")
		}
	})

	// The exact two-table mount cmd/hbatd performs: /v1 job API next to
	// the obs endpoints, /ready tracking the engine's accepting state.
	mux := http.NewServeMux()
	mux.Handle("/v1/", svc.Handler())
	mux.Handle("/", obs.NewHandler(obs.Config{
		Engine: eng,
		Spans:  tracer,
		Extra:  svc.MetricsFamilies,
	}))
	w.srv = httptest.NewServer(w.middleware(mux))
	w.Addr = w.srv.URL

	t.Cleanup(func() {
		w.SetFault(FaultNone, 0) // release any parked hangs
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		w.mu.Lock()
		crashed := w.crashed
		w.mu.Unlock()
		if !crashed {
			w.srv.Close()
		}
	})
	return w
}

// SetFault switches the worker's failure mode, releasing any requests
// parked by a previous FaultHang.
func (w *Worker) SetFault(f Fault, slowBy time.Duration) {
	w.mu.Lock()
	w.fault = f
	w.slowBy = slowBy
	close(w.hangers)
	w.hangers = make(chan struct{})
	w.mu.Unlock()
}

// Crash drops the worker like a kill -9: the listener closes and every
// open connection is severed. The in-process engine may finish what it
// was simulating, but the worker never answers again.
func (w *Worker) Crash() {
	w.mu.Lock()
	if w.crashed {
		w.mu.Unlock()
		return
	}
	w.crashed = true
	w.mu.Unlock()
	w.srv.Listener.Close()
	w.srv.CloseClientConnections()
}

// Drain starts the worker's own graceful shutdown in the background:
// /ready flips to 503 immediately, in-flight jobs complete.
func (w *Worker) Drain(ctx context.Context) <-chan error {
	done := make(chan error, 1)
	go func() { done <- w.Service.Shutdown(ctx) }()
	return done
}

// Submitted returns a copy of the per-spec-key submission counts this
// worker has seen.
func (w *Worker) Submitted() map[string]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]int, len(w.submitted))
	for k, n := range w.submitted {
		out[k] = n
	}
	return out
}

// middleware injects the configured fault and records submissions.
func (w *Worker) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		fault, slowBy, hangers := w.fault, w.slowBy, w.hangers
		w.mu.Unlock()

		switch fault {
		case FaultHang:
			select {
			case <-hangers:
			case <-r.Context().Done():
				return
			}
		case FaultSlow:
			select {
			case <-time.After(slowBy):
			case <-r.Context().Done():
				return
			}
		}

		if r.Method == http.MethodPost && r.URL.Path == api.PathJobs {
			w.recordSubmission(r)
		}

		if fault == FaultCorrupt && strings.HasPrefix(r.URL.Path, api.PathResults) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) > 0 {
				body = append([]byte(nil), body...)
				body[len(body)/2] ^= 0x01
			}
			for k, vs := range rec.Header() {
				for _, v := range vs {
					rw.Header().Add(k, v)
				}
			}
			rw.WriteHeader(rec.Code)
			rw.Write(body)
			return
		}
		next.ServeHTTP(rw, r)
	})
}

// recordSubmission notes every spec key in a job submission, leaving
// the body intact for the real handler.
func (w *Worker) recordSubmission(r *http.Request) {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return
	}
	var req api.JobRequest
	if json.Unmarshal(body, &req) != nil {
		return
	}
	keys := make(map[string]bool)
	for _, o := range transport.ExpandRequest(&req) {
		if spec, err := engine.SpecFromWire(o); err == nil {
			keys[spec.Hash()] = true
		}
	}
	w.mu.Lock()
	for k := range keys {
		w.submitted[k]++
	}
	w.mu.Unlock()
}

// TotalSubmissions sums, per spec key, how many distinct workers were
// asked to run it — the left side of the no-duplicate-run invariant.
func (r *Rig) TotalSubmissions() map[string]int {
	totals := make(map[string]int)
	for _, w := range r.Workers {
		for k := range w.Submitted() {
			totals[k]++
		}
	}
	return totals
}
