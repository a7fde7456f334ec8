package hbat

// What a Fabric.Simulate caller sees when its job id is gone: a daemon
// that restarted between the submit and the wait costs one resubmission,
// answered from the result store that outlived the job table; a server
// that loses the job twice is the caller's error, as the server typed it.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/store"
	"hbat/internal/transport"
)

// restartingDaemon serves one front end until its first job has run,
// then a second one over the same result store — an hbatd restarted on
// its -data-dir: the store's artifacts survive, the job table does not.
type restartingDaemon struct {
	mu        sync.Mutex
	cur, next http.Handler
	submits   int
}

func (d *restartingDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r.Method != http.MethodPost {
		d.cur.ServeHTTP(w, r)
		return
	}
	d.submits++
	rec := httptest.NewRecorder()
	d.cur.ServeHTTP(rec, r)
	var acc api.JobAccepted
	if d.next != nil && json.Unmarshal(rec.Body.Bytes(), &acc) == nil && acc.StatusURL != "" {
		// Let the job run to its end (one blocking status), then restart.
		d.cur.ServeHTTP(httptest.NewRecorder(),
			httptest.NewRequest(http.MethodGet, acc.StatusURL+"?wait=30s", nil))
		d.cur, d.next = d.next, nil
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

func TestFabricSimulateResubmitsOnceAcrossARestart(t *testing.T) {
	ctx := context.Background()
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := &restartingDaemon{}
	for _, h := range []*http.Handler{&d.cur, &d.next} {
		svc, err := transport.New(transport.Config{Engine: engine.New(), Store: st, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Shutdown(ctx)
		*h = svc.Handler()
	}
	ts := httptest.NewServer(d)
	defer ts.Close()

	tr := NewSpanTracer()
	SetSpanTracer(tr)
	defer SetSpanTracer(nil)

	f, err := Dial(ctx, ts.URL)
	if err != nil || !f.Remote() {
		t.Fatalf("Dial: %v (fallback %v)", err, f.FallbackErr())
	}
	o := Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "compress", Design: "T4"}
	res, err := f.Simulate(ctx, o)
	if err != nil {
		t.Fatalf("Simulate across a restart: %v", err)
	}
	local, err := Simulate(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != local.Cycles || res.Instructions != local.Instructions {
		t.Errorf("resubmitted result = %d cycles / %d insts, local run %d / %d",
			res.Cycles, res.Instructions, local.Cycles, local.Instructions)
	}
	if d.submits != 2 {
		t.Errorf("%d submissions, want 2 (the original and one resubmission)", d.submits)
	}
	// The restarted daemon answered from the store, and the client span
	// says a resubmission happened.
	if js, err := api.NewClient(ts.URL).Job(ctx, res.JobID); err != nil || !js.Specs[0].StoreHit {
		t.Errorf("resubmitted job %s = %+v (err %v), want a store hit on the restarted daemon", res.JobID, js, err)
	}
	var root map[string]string
	for _, sp := range tr.Spans() {
		if sp.Name == "fabric_simulate" {
			root = sp.Attrs
		}
	}
	if root["resubmitted"] != "1" || root["error"] != "" {
		t.Errorf("fabric_simulate attrs = %v, want resubmitted=1 and no error", root)
	}
}

func TestFabricSimulateReturnsTheSecond404(t *testing.T) {
	var submits, statuses atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == api.PathPing:
			transport.WriteJSON(w, http.StatusOK, map[string]string{"api": api.Version})
		case r.Method == http.MethodPost:
			submits.Add(1)
			transport.WriteJSON(w, http.StatusAccepted, api.JobAccepted{API: api.Version, ID: "j1", Total: 1})
		default:
			statuses.Add(1)
			transport.WriteErr(w, http.StatusNotFound, "no job %q", "j1")
		}
	}))
	defer ts.Close()

	ctx := context.Background()
	f, err := Dial(ctx, ts.URL)
	if err != nil || !f.Remote() {
		t.Fatalf("Dial: %v (fallback %v)", err, f.FallbackErr())
	}
	_, err = f.Simulate(ctx, Options{CommonOptions: CommonOptions{Scale: "test"}})
	var gone *api.Error
	if !errors.As(err, &gone) || gone.Code != http.StatusNotFound {
		t.Fatalf("Simulate = %v, want the server's 404 *api.Error", err)
	}
	if submits.Load() != 2 || statuses.Load() != 2 {
		t.Errorf("%d submissions and %d status requests, want 2 and 2: one resubmission, no loop",
			submits.Load(), statuses.Load())
	}
}
