package fleet_test

import (
	"context"
	"errors"
	"net/http"
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
