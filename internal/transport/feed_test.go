package transport

// The job event feed: pointer events shared by every subscriber, the
// 64-slot drop-when-full buffer, and the done the SSE handler
// synthesizes for a subscriber that lost it.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hbat/api"
)

// parkedJob submits an n-spec job (distinct seeds, so n distinct keys)
// to a front whose executor leaves it open, and returns the front's
// handler and the job.
func parkedJob(t *testing.T, n int) (http.Handler, *Job) {
	t.Helper()
	exec := &stubExec{park: true}
	h := NewFront(Config{Store: memStore(t)}, exec).Handler()
	specs := make([]api.SimOptions, n)
	for i := range specs {
		specs[i] = api.SimOptions{
			CommonOptions: api.CommonOptions{Scale: "test", Seed: uint64(i + 1)},
			Workload:      "compress", Design: "T4",
		}
	}
	body, err := json.Marshal(api.JobRequest{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathJobs, bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	return h, exec.parked[0]
}

// subscribers returns how many event feeds the job has open.
func (j *Job) subscribers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.subs)
}

// stallingWriter is an SSE response whose second Flush — the first
// event's — blocks until release is closed: a client that stopped
// reading.
type stallingWriter struct {
	*httptest.ResponseRecorder
	flushes int
	release chan struct{}
}

func (w *stallingWriter) Flush() {
	w.flushes++
	if w.flushes == 2 {
		<-w.release
	}
	w.ResponseRecorder.Flush()
}

// TestLaggingSubscriberGetsExactlyOneDone: a stream stalled on its
// first event while the job's other 99 specs finish loses what did not
// fit its 64-slot buffer, the done included, and still ends with
// exactly one done carrying the final counts.
func TestLaggingSubscriberGetsExactlyOneDone(t *testing.T) {
	const n = 100
	h, j := parkedJob(t, n)
	w := &stallingWriter{ResponseRecorder: httptest.NewRecorder(), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, api.PathJobs+"/"+j.ID+"/events", nil))
	}()
	for deadline := time.Now().Add(5 * time.Second); j.subscribers() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the stream never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	for i := range n {
		j.Finish(i, api.SpecStatus{State: api.StateDone})
	}
	close(w.release)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("the stream did not end after the job finished")
	}

	var specs int
	var dones []api.Event
	for _, line := range strings.Split(w.Body.String(), "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("undecodable frame %q: %v", data, err)
		}
		switch ev.Type {
		case "spec":
			specs++
		case "done":
			dones = append(dones, ev)
		}
	}
	// One event in the handler's hands, 64 in the buffer, the rest lost.
	if specs != 1+64 {
		t.Errorf("stalled stream delivered %d spec events, want 65", specs)
	}
	if len(dones) != 1 || dones[0].Done != n || dones[0].Total != n {
		t.Errorf("stalled stream's done events = %+v, want exactly one with done=total=%d", dones, n)
	}
}

// TestSubscribersShareImmutableEvents: two subscribers of one job see
// the same events in the same order, and no later Finish changes an
// event already delivered (under -race, a write to a shared event is
// also a reported race).
func TestSubscribersShareImmutableEvents(t *testing.T) {
	const n = 4
	_, j := parkedJob(t, n)
	type seen struct {
		ev   *api.Event
		snap api.Event
		spec api.SpecStatus
	}
	var wg sync.WaitGroup
	got := make([][]seen, 2)
	for s := range got {
		_, events, cancel := j.subscribe(64)
		defer cancel()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range events {
				rec := seen{ev: ev, snap: *ev}
				if ev.Spec != nil {
					rec.spec = *ev.Spec
				}
				got[s] = append(got[s], rec)
			}
		}()
	}
	for i := range n {
		j.Finish(i, api.SpecStatus{State: api.StateDone, SHA256: "sha" + string(rune('a'+i))})
		j.Finish(i, api.SpecStatus{State: api.StateFailed, Error: "a second report is ignored"})
	}
	wg.Wait()

	if len(got[0]) != n+1 || got[0][n].ev.Type != "done" {
		t.Fatalf("subscriber saw %d events, want %d spec events and a done", len(got[0]), n)
	}
	for i := range got[0] {
		a, b := got[0][i], got[1][i]
		if a.ev != b.ev {
			t.Errorf("event %d: subscribers hold different copies", i)
		}
		if !reflect.DeepEqual(*a.ev, a.snap) || (a.ev.Spec != nil && !reflect.DeepEqual(*a.ev.Spec, a.spec)) {
			t.Errorf("event %d changed after delivery: delivered %+v %+v, now %+v %+v",
				i, a.snap, a.spec, *a.ev, a.ev.Spec)
		}
		if i < n && (a.ev.Spec.State != api.StateDone || a.ev.Done != i+1) {
			t.Errorf("event %d = %+v %+v, want spec %d done", i, *a.ev, *a.ev.Spec, i)
		}
	}
}

// TestStreamOpensWithFinishedSpecs: a stream opened after two of its
// job's three specs finished sends those first, the done one with the
// artifact the store holds and the failed one bare, then the third
// spec's Finish and the done: each spec once, counting 1, 2, 3. Every
// data line is the event's JSON document as json.Marshal writes it.
func TestStreamOpensWithFinishedSpecs(t *testing.T) {
	h, j := parkedJob(t, 3)
	artifact := []byte(`{"cycles":1}`)
	sha, err := j.front.cfg.Store.Put("t", j.Keys[0], artifact)
	if err != nil {
		t.Fatal(err)
	}
	j.Finish(0, api.SpecStatus{State: api.StateDone, SHA256: sha})
	j.Finish(1, api.SpecStatus{State: api.StateFailed, Error: "boom"})
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, api.PathJobs+"/"+j.ID+"/events", nil))
	}()
	for j.subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}
	j.Finish(2, api.SpecStatus{State: api.StateDone, SHA256: "late", Artifact: []byte("late")})
	<-served

	var got []api.Event
	for _, chunk := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n\n"), "\n\n") {
		typ, data, ok := strings.Cut(chunk, "\ndata: ")
		var ev api.Event
		if !ok || json.Unmarshal([]byte(data), &ev) != nil || typ != "event: "+ev.Type {
			t.Fatalf("malformed event %q", chunk)
		}
		if b, _ := json.Marshal(ev); string(b) != data {
			t.Errorf("data line %s, json.Marshal writes %s", data, b)
		}
		got = append(got, ev)
	}
	want := []struct {
		key, state, artifact string
	}{{j.Keys[0], api.StateDone, string(artifact)}, {j.Keys[1], api.StateFailed, ""}, {j.Keys[2], api.StateDone, "late"}}
	if len(got) != len(want)+1 || got[len(want)].Type != "done" || got[len(want)].Done != 3 {
		t.Fatalf("stream sent %+v, want %d spec events and a done", got, len(want))
	}
	for i, w := range want {
		ev := got[i]
		if ev.Type != "spec" || ev.Done != i+1 || ev.Total != 3 || ev.Spec.SpecKey != w.key ||
			ev.Spec.State != w.state || string(ev.Spec.Artifact) != w.artifact {
			t.Errorf("event %d = %+v %+v, want spec %s %s with artifact %q", i, ev, *ev.Spec, w.key, w.state, w.artifact)
		}
	}
}
