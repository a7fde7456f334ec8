package transport

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/spans"
)

// Job is one admitted job: the state machine an Executor reports into
// and the front end serves status, events, and spans from. The exported
// fields are set at admission and never change; everything an executor
// learns afterwards goes through Running, Note, Finish, and Publish.
type Job struct {
	ID     string
	Tenant string
	// TraceID is the job's 32-hex cross-process trace id — the one the
	// submitter sent via traceparent, or server-minted. Always set,
	// even with tracing off, so logs and statuses stay correlatable.
	// SpanID is the job root span's own wire identity; whatever an
	// executor starts on the job's behalf parents under it.
	TraceID string
	SpanID  string
	// Trace/Root are the job's span tree when the daemon traces spans
	// (0/nil otherwise). The root span covers admission to completion.
	Trace spans.TraceID
	Root  *spans.Span
	// Keys, Wire, and Runs are index-aligned: each spec's content key,
	// the wire form it was submitted in, and its normalized run.
	Keys []string
	Wire []api.SimOptions
	Runs []engine.RunSpec

	front *Front

	// mu guards specs/done/state and the subscriber list.
	mu    sync.Mutex
	specs []api.SpecStatus
	done  int
	state string
	// subs receive one event per completed spec and a final "done";
	// sends never block (lossy, like the span feed), and a subscriber
	// that lost the done gets one synthesized by the SSE handler. The
	// feed carries pointers: an event is allocated once per publish,
	// only while the job has a subscriber, shared by every subscriber,
	// and never mutated after it is sent — so a subscriber's buffer
	// costs 8 bytes a slot.
	subs   map[uint64]chan *api.Event
	subSeq uint64
	// finished is what a blocking status request parks on. The last
	// Finish closes it as its final act — state terminal, root span
	// ended, admission charge returned — so a client woken by it can
	// fetch /spans, or submit its next job against the refunded quota.
	finished chan struct{}
}

func newJobID() string {
	var b [8]byte
	rand.Read(b[:])
	return "j" + hex.EncodeToString(b[:])
}

func terminal(state string) bool {
	return state == api.StateDone || state == api.StateFailed
}

// Running marks specs as executing. A non-empty worker names the remote
// process the attempt runs on and counts the attempt.
func (j *Job) Running(worker string, idxs ...int) {
	j.mu.Lock()
	for _, i := range idxs {
		j.specs[i].State = api.StateRunning
		if worker != "" {
			j.specs[i].Worker = worker
			j.specs[i].Attempts++
		}
	}
	if j.state == api.StateQueued {
		j.state = api.StateRunning
	}
	j.mu.Unlock()
}

// Spec returns one spec's current status.
func (j *Job) Spec(idx int) api.SpecStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.specs[idx]
}

// Open returns the subset of idxs that is not yet terminal.
func (j *Job) Open(idxs []int) []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var open []int
	for _, i := range idxs {
		if !terminal(j.specs[i].State) {
			open = append(open, i)
		}
	}
	return open
}

// Note records msg on the specs of idxs that are not yet terminal,
// without terminalizing them: they stay eligible for another attempt,
// and the message survives into a terminal failure.
func (j *Job) Note(idxs []int, msg string) {
	j.mu.Lock()
	for _, i := range idxs {
		if !terminal(j.specs[i].State) {
			j.specs[i].Error = msg
		}
	}
	j.mu.Unlock()
}

// Finish records one spec's terminal status and publishes it; what
// Running already set (Worker, Attempts) survives. final.Artifact, the
// bytes the executor just filed, goes on the spec's event alone: the
// job table holds no artifact. A second report for
// the same spec is ignored. The report that makes the last spec
// terminal rolls the job up to done or failed, emits the "done" event,
// closes every subscriber, ends the root span, releases the job's
// admission charge, and answers every parked status request.
func (j *Job) Finish(idx int, final api.SpecStatus) {
	j.mu.Lock()
	st := &j.specs[idx]
	if terminal(st.State) {
		j.mu.Unlock()
		return
	}
	st.State, st.Cached, st.StoreHit = final.State, final.Cached, final.StoreHit
	st.WallMs, st.Error = final.WallMs, final.Error
	st.ResultURL, st.SHA256 = final.ResultURL, final.SHA256
	j.done++
	done, total := j.done, len(j.specs)
	if len(j.subs) > 0 {
		ev := *st
		if len(final.Artifact) <= api.MaxInlineArtifacts {
			ev.Artifact = final.Artifact
		}
		j.publishLocked(&api.Event{Type: "spec", Job: j.ID, Spec: &ev, Done: done, Total: total})
	}
	if done == total {
		j.state = api.StateDone
		for i := range j.specs {
			if j.specs[i].State == api.StateFailed {
				j.state = api.StateFailed
				break
			}
		}
		if len(j.subs) > 0 {
			j.publishLocked(&api.Event{Type: "done", Job: j.ID, Done: done, Total: total})
		}
		for id, ch := range j.subs {
			delete(j.subs, id)
			close(ch)
		}
	}
	state := j.state
	j.mu.Unlock()

	if done == total {
		j.Root.End()
		j.front.release(j, state)
		close(j.finished)
	}
}

// Publish fans an executor-forwarded event (a remote worker's span) out
// to the job's subscribers; with none, it costs no allocation.
func (j *Job) Publish(ev api.Event) {
	j.mu.Lock()
	if len(j.subs) > 0 {
		shared := ev // a heap copy only here: &ev would move ev to the heap on every call
		j.publishLocked(&shared)
	}
	j.mu.Unlock()
}

// publishLocked fans an event out to the job's subscribers. Callers
// hold j.mu. Sends never block: a subscriber that lags loses
// intermediate spec events (the SSE handler synthesizes the terminal
// done from job state if even that was dropped).
func (j *Job) publishLocked(ev *api.Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers an event feed for a job and returns, read under
// the same lock, the specs already terminal, in index order: the feed
// carries the Finishes after them, so a subscriber that sends these
// first sends every spec once. The returned cancel is idempotent. A
// job that is already done gets an immediate "done" event and a closed
// channel.
func (j *Job) subscribe(buf int) ([]api.SpecStatus, <-chan *api.Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var past []api.SpecStatus
	for _, sp := range j.specs {
		if terminal(sp.State) {
			past = append(past, sp)
		}
	}
	ch := make(chan *api.Event, buf)
	if j.done == len(j.specs) {
		ch <- &api.Event{Type: "done", Job: j.ID, Done: j.done, Total: len(j.specs)}
		close(ch)
		return past, ch, func() {}
	}
	j.subSeq++
	id := j.subSeq
	j.subs[id] = ch
	return past, ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// await parks the caller until the job's last Finish, hold elapsing, or
// ctx ending, and reports whether ctx outlived the wait.
func (j *Job) await(ctx context.Context, hold time.Duration) bool {
	t := time.NewTimer(hold)
	defer t.Stop()
	select {
	case <-j.finished:
	case <-t.C:
	case <-ctx.Done():
		return false
	}
	return true
}

func (j *Job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		API: api.Version, ID: j.ID, Tenant: j.Tenant,
		State: j.state, Done: j.done, Total: len(j.specs),
		Specs:   make([]api.SpecStatus, len(j.specs)),
		TraceID: j.TraceID,
	}
	copy(st.Specs, j.specs)
	return st
}
