package fleet_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/fleet"
	"hbat/internal/fleet/fleettest"
	"hbat/internal/store"
)

// dispatchBarrier holds every job submission a coordinator sends its
// workers until n have been sent, so n coordinator jobs are in flight at
// once, each past its intake.
type dispatchBarrier struct {
	next    http.RoundTripper
	n       int
	mu      sync.Mutex
	sent    int
	release chan struct{}
}

func (b *dispatchBarrier) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.URL.Path == api.PathJobs {
		b.mu.Lock()
		if b.sent++; b.sent == b.n {
			close(b.release)
		}
		b.mu.Unlock()
		select {
		case <-b.release:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return b.next.RoundTrip(r)
}

// TestSameKeyInFlightThroughCoordinator: two coordinator jobs on one
// key, both past intake before either is dispatched, cost one worker
// simulation and file the artifact into the coordinator store once.
// The second verified fetch's Put is the store's duplicate no-op, and
// both specs are done with the one SHA-256, dispatched, not store hits.
func TestSameKeyInFlightThroughCoordinator(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 2)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	barrier := &dispatchBarrier{next: tr, n: 2, release: make(chan struct{})}
	cst, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, cl, _ := newCoord(t, rig, func(c *fleet.Config) {
		c.Store = cst
		c.Client = func(addr string) *api.Client {
			wc := api.NewClient(addr)
			wc.HTTP = &http.Client{Transport: barrier}
			return wc
		}
	})

	ctx := context.Background()
	req := api.JobRequest{Specs: seedSpecs(1)}
	var ids []string
	for range 2 {
		acc, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, acc.ID)
	}
	sha := ""
	for _, id := range ids {
		st := waitJob(t, cl, id)
		s := st.Specs[0]
		if sha == "" {
			sha = s.SHA256
		}
		if st.State != api.StateDone || s.SHA256 == "" || s.SHA256 != sha || s.StoreHit || s.Attempts != 1 {
			t.Errorf("job %s spec = %+v, want done, dispatched once, sha %.12s", id, s, sha)
		}
	}
	var executed uint64
	for _, w := range rig.Workers {
		executed += w.Engine.State().Executed
	}
	if executed != 1 {
		t.Errorf("the workers simulated the key %d times, want 1", executed)
	}
	if s := cst.Stats(); s.Puts != 1 || s.DupPuts != 1 {
		t.Errorf("coordinator store: %d puts and %d duplicate puts, want 1 and 1", s.Puts, s.DupPuts)
	}
}

// familyValue sums one family's series in the coordinator's /metrics
// export.
func familyValue(coord *fleet.Coordinator, name string) float64 {
	var v float64
	for _, f := range coord.MetricsFamilies() {
		if f.Name == name {
			for _, s := range f.Series {
				v += s.Value
			}
		}
	}
	return v
}

// TestStoredJobNeedsNoWorker: with every worker down, a job whose specs
// the coordinator's store holds is accepted and done at intake, each
// spec a store hit, while a job with one unstored spec is still the
// typed 503. Only that refusal counts as finding no live worker, and it
// leaves no open job charged to its tenant.
func TestStoredJobNeedsNoWorker(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 1)
	coord, cl, _ := newCoord(t, rig, nil)
	ctx := context.Background()
	stored := seedSpecs(2)
	acc, err := cl.Submit(ctx, api.JobRequest{Specs: stored})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, cl, acc.ID); st.State != api.StateDone {
		t.Fatalf("filling the store: job %s", st.State)
	}
	rig.Workers[0].Crash()
	pollWorkers(t, cl, 5*time.Second, func(ws []api.Worker) bool {
		return len(ws) == 1 && ws[0].State == api.WorkerDown
	})
	refusals := familyValue(coord, "hbat_fleet_no_worker_events")

	acc, err = cl.Submit(ctx, api.JobRequest{Specs: stored})
	if err != nil {
		t.Fatalf("a job the store holds, with no live worker: %v", err)
	}
	st, err := cl.Job(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("stored job is %s after its 202, want done", st.State)
	}
	for _, s := range st.Specs {
		if s.State != api.StateDone || !s.StoreHit || s.SHA256 == "" {
			t.Errorf("spec %s: state %s, store_hit %v, sha %q; want done from the store", s.SpecKey, s.State, s.StoreHit, s.SHA256)
		}
	}
	if n := familyValue(coord, "hbat_fleet_no_worker_events"); n != refusals {
		t.Errorf("the stored job moved the no-worker count %g -> %g", refusals, n)
	}

	mixed := append(stored[:1:1], seedSpecs(3)[2])
	_, err = cl.Submit(ctx, api.JobRequest{Specs: mixed})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable ||
		!strings.Contains(apiErr.Message, fleet.ErrNoWorkers.Error()) {
		t.Fatalf("a job with an unstored spec and no live worker: %v, want the typed 503", err)
	}
	if n := familyValue(coord, "hbat_fleet_no_worker_events"); n != refusals+1 {
		t.Errorf("the refused job moved the no-worker count %g -> %g, want +1", refusals, n)
	}
	if n := familyValue(coord, "hbat_fabric_jobs_open"); n != 0 {
		t.Errorf("%g jobs open after the refusal, want 0", n)
	}
}

// requestLog is an http.RoundTripper that records the method and path
// of every request it passes on, except the prober's.
type requestLog struct {
	next http.RoundTripper
	mu   sync.Mutex
	reqs []string
}

func (l *requestLog) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/ready" && r.URL.Path != api.PathPing {
		l.mu.Lock()
		l.reqs = append(l.reqs, r.Method+" "+r.URL.Path)
		l.mu.Unlock()
	}
	return l.next.RoundTrip(r)
}

func (l *requestLog) requests() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.reqs...)
}

// probeLog is an http.RoundTripper that counts the requests per path it
// passes on and answers GET /v1/manifest with a 500 itself.
type probeLog struct {
	next http.RoundTripper
	mu   sync.Mutex
	hits map[string]int
}

func (l *probeLog) RoundTrip(r *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.hits[r.Method+" "+r.URL.Host+r.URL.Path]++
	l.mu.Unlock()
	if r.URL.Path == api.PathManifest {
		return &http.Response{StatusCode: http.StatusInternalServerError, Status: "500 Internal Server Error",
			Body: io.NopCloser(strings.NewReader("{}")), Request: r}, nil
	}
	return l.next.RoundTrip(r)
}

// TestFirstContactIsOnePing: the coordinator learns each worker's tool
// name from one GET /v1/ping at first contact and never asks for
// /v1/manifest, which here would fail.
func TestFirstContactIsOnePing(t *testing.T) {
	rig := fleettest.New(t, 2)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	log := &probeLog{next: tr, hits: map[string]int{}}
	_, cl, _ := newCoord(t, rig, func(c *fleet.Config) {
		c.Client = func(addr string) *api.Client {
			wc := api.NewClient(addr)
			wc.HTTP = &http.Client{Transport: log}
			return wc
		}
	})
	pollWorkers(t, cl, 5*time.Second, func(ws []api.Worker) bool {
		for _, w := range ws {
			if w.State != api.WorkerUp || w.Tool != "hbatd" {
				return false
			}
		}
		return len(ws) == 2
	})
	time.Sleep(100 * time.Millisecond) // four more probe periods
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, w := range rig.Workers {
		host := strings.TrimPrefix(w.Addr, "http://")
		if n := log.hits["GET "+host+api.PathPing]; n != 1 {
			t.Errorf("worker %s was pinged %d times, want once", w.Addr, n)
		}
		if n := log.hits["GET "+host+api.PathManifest]; n != 0 {
			t.Errorf("worker %s was asked for its manifest %d times", w.Addr, n)
		}
		if log.hits["GET "+host+"/ready"] < 2 {
			t.Errorf("worker %s was probed %d times, want the periodic /ready", w.Addr, log.hits["GET "+host+"/ready"])
		}
	}
}

// TestWorkerStoredBatchIsOneRequest: a spec the worker's store holds
// and the coordinator's does not is dispatched as one worker POST, whose
// 202 carries the finished batch and its artifact: no event stream, no
// status request and no result fetch. The job ends done with the
// worker's hash, and the verified artifact is filed in the coordinator
// store.
func TestWorkerStoredBatchIsOneRequest(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 1)
	ctx := context.Background()
	req := api.JobRequest{Specs: seedSpecs(1)}
	wcl := api.NewClient(rig.Workers[0].Addr)
	acc, err := wcl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := waitJob(t, wcl, acc.ID).Specs[0]

	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	log := &requestLog{next: tr}
	cst, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, cl, _ := newCoord(t, rig, func(c *fleet.Config) {
		c.Store = cst
		c.Client = func(addr string) *api.Client {
			wc := api.NewClient(addr)
			wc.HTTP = &http.Client{Transport: log}
			return wc
		}
	})
	acc, err = cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, cl, acc.ID)
	if s := st.Specs[0]; st.State != api.StateDone || s.SHA256 != want.SHA256 || s.StoreHit || s.Attempts != 1 {
		t.Errorf("job %s spec = %+v, want done, dispatched once, sha %.12s", acc.ID, s, want.SHA256)
	}
	wantReqs := []string{"POST " + api.PathJobs}
	if got := log.requests(); !reflect.DeepEqual(got, wantReqs) {
		t.Errorf("the worker saw %q, want %q", got, wantReqs)
	}
	if _, sha, ok := cst.Get(want.SpecKey); !ok || sha != want.SHA256 {
		t.Errorf("coordinator store holds %.12s (ok %v), want the worker's %.12s", sha, ok, want.SHA256)
	}
}
