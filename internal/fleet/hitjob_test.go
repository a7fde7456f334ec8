package fleet_test

// One-spec store-hit jobs in a closed loop, each making the three calls
// the benchmark's serve-hit and fleet-hit workloads make: Submit, Wait,
// Result (one HTTP exchange: Wait and Result return the status and the
// artifact the 202 carried).
// The per-job request and allocation budgets (norace_test.go)
// and BenchmarkFleetHitJob (`make profile-fleet`) drive the same loop.

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/fleet"
	"hbat/internal/fleet/fleettest"
)

// hitRig is a client in front of a fabric that already stores its one
// spec's artifact.
type hitRig struct {
	cl  *api.Client
	req api.JobRequest
	// trips counts the client's HTTP round trips.
	trips *tripCounter
}

// tripCounter is an http.RoundTripper that counts the round trips it
// passes on.
type tripCounter struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (c *tripCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// newHitRig mounts the path a job takes — straight to one rig worker,
// or through a coordinator over two — and runs the spec once cold, so
// every later job is a store hit. The client holds one keep-alive
// connection, as the benchmark's does.
func newHitRig(tb testing.TB, coordinated bool) *hitRig {
	tb.Helper()
	base := ""
	if coordinated {
		_, cl, _ := newCoord(tb, fleettest.New(tb, 2), func(c *fleet.Config) {
			// The benchmark's probe period: probes stay out of the
			// per-job figure.
			c.ProbeEvery = time.Second
		})
		base = cl.Base
	} else {
		base = fleettest.New(tb, 1).Workers[0].Addr
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	tb.Cleanup(tr.CloseIdleConnections)
	trips := &tripCounter{next: tr}
	cl := api.NewClient(base)
	cl.HTTP = &http.Client{Transport: trips}
	h := &hitRig{cl: cl, req: api.JobRequest{Specs: seedSpecs(1)}, trips: trips}
	h.job(tb)
	return h
}

// job runs one job: submit it, wait for it to finish, fetch its
// artifact.
func (h *hitRig) job(tb testing.TB) {
	ctx := context.Background()
	acc, err := h.cl.Submit(ctx, h.req)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := h.cl.Wait(ctx, acc.ID)
	if err != nil {
		tb.Fatal(err)
	}
	if st.State != api.StateDone {
		tb.Fatalf("job %s: %s: %+v", acc.ID, st.State, st.Specs)
	}
	if _, _, err := h.cl.Result(ctx, st.Specs[0].SpecKey); err != nil {
		tb.Fatal(err)
	}
}

// TestStoredJobRequestBudget: in either role, a one-spec job the front
// end's store holds costs its client exactly one round trip: the POST,
// whose 202 carries the finished status that Wait returns and the
// artifact that Result returns. It cost two while Result fetched the
// artifact, and three while Wait also asked for the status again.
func TestStoredJobRequestBudget(t *testing.T) {
	for _, tc := range []struct {
		name        string
		coordinated bool
	}{{"direct", false}, {"coordinator", true}} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHitRig(t, tc.coordinated)
			before := h.trips.n.Load()
			h.job(t)
			if n := h.trips.n.Load() - before; n != 1 {
				t.Errorf("a stored one-spec job took %d round trips, want 1 (submit)", n)
			}
		})
	}
}

// warm runs enough jobs to open every connection and fill every pool
// the loop reuses.
func (h *hitRig) warm(tb testing.TB) {
	for range 50 {
		h.job(tb)
	}
}

// BenchmarkFleetHitJob is one store-hit job through a coordinator over
// two workers, everything in this process: the coordinator's intake
// answers it from its own store, so the workers see none of it. Run it
// with -benchmem, or profile it with `make profile-fleet`.
func BenchmarkFleetHitJob(b *testing.B) {
	h := newHitRig(b, true)
	h.warm(b)
	b.ReportAllocs()
	for b.Loop() {
		h.job(b)
	}
}
