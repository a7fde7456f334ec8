package fleet

// The coordinator behind the shared v1 front end: the transport.Executor
// it hands to transport.NewFront, and the one route the worker role does
// not serve, the /v1/workers registry.

import (
	"context"
	"net/http"
	"strings"

	"hbat/api"
	"hbat/internal/transport"
)

// maxRegistrationBody bounds a POST /v1/workers body: one URL.
const maxRegistrationBody = 4 << 10

// remote is the coordinator as a transport.Executor.
type remote struct{ c *Coordinator }

// Admit refuses a job while no live worker could take it.
func (r remote) Admit() error {
	if len(r.c.live()) == 0 {
		r.c.mu.Lock()
		r.c.noWorkers++
		r.c.mu.Unlock()
		return ErrNoWorkers
	}
	return nil
}

// Start dispatches the job's open specs; intake has finished the rest
// from the coordinator's store.
func (r remote) Start(j *transport.Job, open []int) {
	r.c.jobWG.Add(1)
	go r.c.runJob(j, open)
}

// Close stops the prober, which also cuts short every retry backoff,
// and waits for every started job's retry loop to return.
func (r remote) Close(ctx context.Context) error {
	r.c.probeCancel()
	done := make(chan struct{})
	go func() { r.c.jobWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	<-r.c.probeDone
	return nil
}

// handleWorkers serves the fleet registry: GET lists every registered
// worker with its probed state; POST registers a worker address and
// probes it synchronously, so a healthy worker is dispatchable when the
// answer arrives — or answers 409 for a new address once the registry
// is full.
func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		transport.WriteJSON(w, http.StatusOK, api.FleetStatus{
			API: api.Version, Workers: c.WorkersSnapshot(),
		})
	case http.MethodPost:
		var reg api.WorkerRegistration
		if !transport.ReadJSON(w, r, maxRegistrationBody, "registration", &reg) {
			return
		}
		if !strings.HasPrefix(reg.Addr, "http://") && !strings.HasPrefix(reg.Addr, "https://") {
			transport.WriteErr(w, http.StatusBadRequest, "worker addr must be a base URL, got %q", reg.Addr)
			return
		}
		wk, err := c.addWorker(strings.TrimSuffix(reg.Addr, "/"))
		if err != nil {
			transport.WriteErr(w, http.StatusConflict, "%v", err)
			return
		}
		c.probeWorker(r.Context(), wk)
		ws := wk.snapshot()
		c.cfg.Logger.Info("worker registered", "worker", ws.Addr, "state", ws.State)
		transport.WriteJSON(w, http.StatusOK, ws)
	default:
		transport.WriteErr(w, http.StatusMethodNotAllowed, "GET or POST %s", api.PathWorkers)
	}
}
