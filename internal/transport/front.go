// Package transport is the HTTP layer of the sweep fabric: the one v1
// front end (see the api package for the wire contract) hbatd mounts in
// either role, and the in-process executor its worker role runs behind
// it.
//
// The Front owns everything a client can see — the routing table, job
// intake and admission, the job table and each Job's state machine,
// SSE fan-out, results with ETags from the role's own store, the
// manifest, ping, the RED middleware, and the drain. At intake it
// looks every spec key up in that store and finishes each stored spec
// on the spot; a job with an open spec left goes to an Executor, the
// seam behind which hbatd's two roles differ, which runs only the open
// specs. Service (this package, plain hbatd) executes on a local
// worker pool over a sweep engine; fleet.Coordinator (hbatd -worker
// URL,...) executes by dispatching to remote workers. Either executor
// files each finished artifact into the store the Front serves from. A
// client cannot tell which one it is talking to.
//
// The store is content-addressed, so a stored artifact answers any
// tenant that submits its spec, whoever filed it, and charges that
// tenant nothing: a store quota counts the bytes a tenant's own jobs
// filed, and a store hit files none.
package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/store"
)

// finishedJobsKept and finishedJobGrace bound the tail of finished jobs
// that stay addressable: the last 256, and beyond that any that finished
// under a tenth of a second ago. A client in Wait is parked on its job and
// handed the terminal status by the last Finish, so the tail serves only
// what comes after that: a post-job /spans or /events fetch, clients
// that poll without wait, and the status request that arrives after its
// job has finished. 256 is seconds of history at cold-job rates and
// about half a MiB (under 4 KiB a retained one-spec job, pinned by a
// test). The age floor is for store-hit rates, where 256 jobs finish in
// 25 ms: a client the host scheduler holds back while the others run
// (up to 63 jobs finish between a job and its own first status request
// in an ordinary ten-second run) would find its finished job gone, so
// how long a job stays must not shrink as the job rate grows. A poller
// later than both count and age gets the ordinary 404 the API documents
// (api.WaitParam). Open jobs are never dropped.
const (
	finishedJobsKept = 256
	finishedJobGrace = 100 * time.Millisecond
)

// maxStatusHold caps how long one GET /v1/jobs/{id}?wait= request parks:
// long enough that a waiting client costs a request every half minute,
// short enough that intermediaries with idle timeouts leave it alone.
const maxStatusHold = 30 * time.Second

// tool is the one daemon's name: the ping answer, the manifest's tool,
// and the hint in the spans-disabled 404, whichever executor is behind
// the front end.
const tool = "hbatd"

// Executor is the execution half of a daemon: what happens to a job
// between admission and its last spec's terminal status.
type Executor interface {
	// Admit reports why no new job can start right now (nil when one
	// can); the front end answers a non-nil error 503. It is asked only
	// for a job the store leaves a spec of open.
	Admit() error
	// Start receives only a job with an open spec, and runs only its
	// open specs: open lists, in submission order, the indices intake
	// did not answer from the store (at least one). It returns at once.
	// The executor reports progress into j — Running when a spec is
	// picked up, Finish with each spec's terminal status, Publish for
	// events it forwards — and the job ends with its last Finish.
	Start(j *Job, open []int)
	// Close ends a drain: started jobs run to completion or ctx expiry,
	// then the executor's goroutines exit. No Start follows it.
	Close(ctx context.Context) error
}

// retiredJob is one entry of the finished-job tail.
type retiredJob struct {
	id string
	at time.Time
}

// Front is a running v1 front end. Create with NewFront, mount Handler,
// stop with Shutdown.
type Front struct {
	cfg  Config
	exec Executor
	red  red
	mux  *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	byTenant map[string]int
	draining bool
	// retired lists the finished jobs still in the table, oldest first.
	retired []retiredJob
	// maxHold and grace are maxStatusHold and finishedJobGrace, except
	// in tests that shrink them.
	maxHold, grace time.Duration
	// starting covers the window between a job's admission and its
	// Executor.Start returning, so Shutdown never closes the executor
	// under a job it has yet to receive. Add happens under mu, before
	// draining can flip.
	starting sync.WaitGroup
}

// NewFront builds the front end a daemon serves through exec. Of cfg
// it reads TenantJobs, MaxSpecs, Logger, Spans, Store (required: the
// intake lookup, the results and the manifest's artifact list), and
// Engine (the manifest's run log; nil on a daemon that never
// simulates).
func NewFront(cfg Config, exec Executor) *Front {
	if cfg.Store == nil {
		panic("transport: NewFront needs a Config.Store")
	}
	if cfg.MaxSpecs <= 0 {
		cfg.MaxSpecs = 1024
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	f := &Front{
		cfg:      cfg,
		exec:     exec,
		jobs:     make(map[string]*Job),
		byTenant: make(map[string]int),
		maxHold:  maxStatusHold,
		grace:    finishedJobGrace,
		mux:      http.NewServeMux(),
	}
	f.mux.HandleFunc(api.PathPing, f.handlePing)
	f.mux.HandleFunc(api.PathJobs, f.handleJobs)
	f.mux.HandleFunc(api.PathJobs+"/", f.handleJob)
	f.mux.HandleFunc(api.PathResults, f.handleResult)
	f.mux.HandleFunc(api.PathManifest, f.handleManifest)
	return f
}

// Handle adds a role-specific route (the coordinator's /v1/workers) to the
// routing table, inside the same middleware.
func (f *Front) Handle(path string, h http.HandlerFunc) { f.mux.HandleFunc(path, h) }

// Handler returns the /v1 routing table, wrapped in the RED-metrics
// and access-log middleware. Mount it at "/" (it matches only /v1/...
// paths) or compose it with the obs handler.
func (f *Front) Handler() http.Handler { return f.red.middleware(f.cfg.Logger, f.mux) }

// Accepting reports whether the front end admits new jobs.
func (f *Front) Accepting() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.draining
}

// Shutdown drains the daemon: no new jobs are admitted, and the
// executor closes once every started job has run to completion (or ctx
// expires). A second call returns at once.
func (f *Front) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	already := f.draining
	f.draining = true
	f.mu.Unlock()
	if already {
		return nil
	}
	f.starting.Wait()
	return f.exec.Close(ctx)
}

// release returns a finished job's admission charge and retires it
// into the bounded tail of the job table.
func (f *Front) release(j *Job, state string) {
	f.mu.Lock()
	f.byTenant[j.Tenant]--
	if f.byTenant[j.Tenant] <= 0 {
		delete(f.byTenant, j.Tenant)
	}
	now := time.Now()
	f.retired = append(f.retired, retiredJob{j.ID, now})
	for len(f.retired) > finishedJobsKept && now.Sub(f.retired[0].at) >= f.grace {
		delete(f.jobs, f.retired[0].id)
		f.retired = f.retired[1:]
	}
	f.mu.Unlock()
	f.cfg.Logger.Info("job finished", "job", j.ID, "tenant", j.Tenant,
		"state", state, "specs", len(j.Keys), "trace_id", j.TraceID)
}

func (f *Front) handlePing(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"api": api.Version, "pong": tool})
}

// handleJob serves GET /v1/jobs/{id}, /events, and /spans.
func (f *Front) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, api.PathJobs+"/")
	id, sub, _ := strings.Cut(rest, "/")
	f.mu.Lock()
	j, ok := f.jobs[id]
	f.mu.Unlock()
	if !ok {
		WriteErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	annotate(r.Context(), j.Tenant, j.TraceID)
	switch sub {
	case "":
		f.serveStatus(w, r, j)
	case "events":
		f.serveEvents(w, r, j)
	case "spans":
		if !f.cfg.Spans.Enabled() {
			WriteErr(w, http.StatusNotFound, "span tracing is disabled on this server (start %s with -spans)", tool)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := f.cfg.Spans.WriteJournalTo(w, j.TraceID); err != nil {
			f.cfg.Logger.Warn("span journal write failed", "job", j.ID, "error", err.Error())
		}
	default:
		WriteErr(w, http.StatusNotFound, "no such job endpoint %q", sub)
	}
}

// serveStatus answers GET /v1/jobs/{id}[?wait=<duration>] (the contract
// is api.WaitParam's). Without wait, or for a job already terminal, the
// status is written at once: no timer, no select. Otherwise the request
// parks until the job's last Finish, the hold (capped at f.maxHold)
// elapsing, or the client going away, whichever is first.
func (f *Front) serveStatus(w http.ResponseWriter, r *http.Request, j *Job) {
	var hold time.Duration
	if r.URL.RawQuery != "" {
		if raw := r.URL.Query().Get(api.WaitParam); raw != "" {
			var err error
			if hold, err = time.ParseDuration(raw); err != nil || hold < 0 {
				WriteErr(w, http.StatusBadRequest, "bad %s %q: want a non-negative duration like 30s", api.WaitParam, raw)
				return
			}
		}
	}
	st := j.status()
	if hold > 0 && !terminal(st.State) {
		if !j.await(r.Context(), min(hold, f.maxHold)) {
			return // the client went away; there is no one to answer
		}
		st = j.status()
	}
	WriteJSON(w, http.StatusOK, st)
}

// serveEvents streams the job's progress as SSE. Each event is one
// api.Event JSON document: spec completions, whatever the executor
// publishes (a coordinator forwards its workers' span events), and the
// live run-root spans of the job's own runs: the tracer's feed carries
// every tenant's runs, the job's are those under its trace id.
func (f *Front) serveEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteErr(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	events, cancel := j.subscribe(64)
	defer cancel()
	spans, cancelSpans := f.cfg.Spans.Subscribe(64)
	defer cancelSpans()
	// Unsubscribe the moment the client goes away, not merely when this
	// handler returns: a handler blocked mid-Write to a stalled peer
	// would otherwise keep both subscriptions registered (and the span
	// feed's channel open) for as long as the write takes to fail.
	// Both cancels are idempotent, so the deferred calls stay correct.
	stop := context.AfterFunc(r.Context(), func() {
		cancel()
		cancelSpans()
	})
	defer stop()

	emit := func(ev *api.Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case d, ok := <-spans:
			if !ok {
				spans = nil // tracer detached; keep serving job events
				continue
			}
			if d.Parent != 0 || d.Name != "run" || d.TraceW3C != j.TraceID {
				continue // this job's run roots only: one event per simulation
			}
			ev := api.Event{Type: "span", Job: j.ID, Span: &api.Span{
				Name: d.Name, DurUS: d.DurUS, Attrs: d.Attrs,
			}}
			if !emit(&ev) {
				return
			}
		case ev, ok := <-events:
			if !ok {
				// The feed closed before this subscriber drained the
				// terminal event (lossy buffer): synthesize the done.
				st := j.status()
				emit(&api.Event{Type: "done", Job: j.ID, Done: st.Done, Total: st.Total})
				return
			}
			if !emit(ev) {
				return
			}
			if ev.Type == "done" {
				return
			}
		}
	}
}

// handleResult serves GET /v1/results/{speckey} from this process's
// store in either role: the canonical artifact with its content hash as
// a strong ETag, or a 404 for a key the store does not hold.
func (f *Front) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		WriteErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, api.PathResults)
	if !store.Key(key) {
		WriteErr(w, http.StatusBadRequest, "malformed spec key %q", key)
		return
	}
	data, sha, ok := f.cfg.Store.Get(key)
	if !ok {
		WriteErr(w, http.StatusNotFound, "no stored result for spec %s", key)
		return
	}
	etag := `"` + sha + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Write(data)
}

// handleManifest serves the daemon's provenance manifest: every run
// this process performed (none on a daemon without an engine) plus the
// store's current keys — enough for a client to audit what was
// simulated versus served from cache.
func (f *Front) handleManifest(w http.ResponseWriter, r *http.Request) {
	man := engine.NewManifest(tool, time.Now())
	if f.cfg.Engine != nil {
		man.RecordRuns(f.cfg.Engine)
	}
	for _, key := range f.cfg.Store.Keys() {
		if data, _, ok := f.cfg.Store.Get(key); ok {
			man.AddArtifactBytes(key+".json", api.PathResults+key, data)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := man.WriteJSON(w); err != nil {
		f.cfg.Logger.Warn("manifest write failed", "error", err.Error())
	}
}
