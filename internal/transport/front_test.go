package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"hbat/api"
)

// stubExec finishes every job inside Start, except while park is set:
// then the job stays open and is kept for the test to finish.
type stubExec struct {
	park   bool
	parked []*Job
}

func (e *stubExec) Admit() error { return nil }

func (e *stubExec) Start(j *Job) {
	if e.park {
		e.parked = append(e.parked, j)
		return
	}
	for i := range j.Keys {
		j.Finish(i, api.SpecStatus{State: api.StateDone})
	}
}

func (e *stubExec) Result(context.Context, string) ([]byte, string, error) {
	return nil, "", errors.New("stub holds no results")
}

func (e *stubExec) Close(context.Context) error { return nil }

// TestJobTableKeepsABoundedTailOfFinishedJobs pins the job table's
// bound: finished jobs leave FIFO once more than finishedJobsKept have
// finished after them, an evicted id answers the ordinary 404, and an
// open job is never evicted however many jobs finish around it.
func TestJobTableKeepsABoundedTailOfFinishedJobs(t *testing.T) {
	const extra = 5
	exec := &stubExec{}
	h := NewFront(Config{}, exec).Handler()

	body, err := json.Marshal(api.JobRequest{Specs: []api.SimOptions{{
		CommonOptions: api.CommonOptions{Scale: "test"}, Workload: "compress", Design: "T4",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	submit := func() string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathJobs, bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
		var acc api.JobAccepted
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		return acc.ID
	}
	status := func(id string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, api.PathJobs+"/"+id, nil))
		return rec.Code
	}

	exec.park = true
	open := submit()
	exec.park = false
	ids := make([]string, finishedJobsKept+extra)
	for i := range ids {
		ids[i] = submit()
	}

	for i, id := range ids {
		want := http.StatusOK
		if i < extra {
			want = http.StatusNotFound
		}
		if got := status(id); got != want {
			t.Fatalf("finished job %d of %d: status %d, want %d", i, len(ids), got, want)
		}
	}
	if got := status(open); got != http.StatusOK {
		t.Fatalf("open job was evicted: status %d", got)
	}
	exec.parked[0].Finish(0, api.SpecStatus{State: api.StateDone})
	if got := status(open); got != http.StatusOK {
		t.Fatalf("job finished last is not in the table: status %d", got)
	}
	if got := status(ids[extra]); got != http.StatusNotFound {
		t.Fatalf("oldest kept job survived one more finish: status %d", got)
	}
}
