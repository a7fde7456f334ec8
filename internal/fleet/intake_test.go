package fleet_test

import (
	"context"
	"net/http"
	"sync"
	"testing"

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
