package hbat

// What an api.Client caller sees when its job id is gone: a daemon
// restarted on its -data-dir between the submit and the wait answers the
// wait with a typed 404, and a resubmission of the same spec from its
// result store, which outlived the job table.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
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

func TestRestartedDaemonAnswersResubmissionFromStore(t *testing.T) {
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

	o := Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "compress", Design: "T4"}
	req := api.JobRequest{Specs: []api.SimOptions{o.wire()}}
	c := api.NewClient(ts.URL)
	acc, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Wait(ctx, acc.ID)
	var gone *api.Error
	if !errors.As(err, &gone) || gone.Code != http.StatusNotFound {
		t.Fatalf("Wait across a restart = %v, want the restarted daemon's 404 *api.Error", err)
	}

	acc, err = c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	js, err := c.Wait(ctx, acc.ID)
	if err != nil || !js.Specs[0].StoreHit {
		t.Fatalf("resubmitted job %s = %+v (err %v), want a store hit on the restarted daemon", acc.ID, js, err)
	}
	data, _, err := c.Result(ctx, js.Specs[0].SpecKey)
	if err != nil {
		t.Fatal(err)
	}
	local, err := Simulate(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if want := engine.Artifact(local.Result); !bytes.Equal(data, want) {
		t.Errorf("resubmitted artifact differs from a local run:\n%s\nvs\n%s", data, want)
	}
	if d.submits != 2 {
		t.Errorf("%d submissions, want 2 (the original and the resubmission)", d.submits)
	}
}
