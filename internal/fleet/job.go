package fleet

// One coordinator job's life. Intake has answered every spec the
// coordinator store held; the open specs shard to live workers by
// affinity rendezvous, each worker group goes out as one batch (a
// worker-side job), worker SSE streams fan back in as merged
// coordinator events (a batch the worker's store answered whole comes
// back finished in its 202 and opens no stream), and each completed
// spec's artifact — carried by its spec event or terminal status, and
// fetched only when neither carried it — is verified against the
// worker-reported content hash and filed into the coordinator store —
// the only place the coordinator serves results from. A batch that
// errors, times out, or returns corrupt bytes sends its unfinished
// specs into the next retry wave, which re-ranks them onto workers not
// yet tried — with capped exponential backoff between waves and a hard
// per-spec attempt cap.
// Workers that died mid-batch are (independently) demoted by the
// prober, so the next wave's live set no longer contains them:
// re-sharding on worker death falls out of rank() over the survivors.

import (
	"context"
	"strconv"
	"sync"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/spans"
	"hbat/internal/transport"
)

// runJob drives a job's open specs to completion through retry waves.
func (c *Coordinator) runJob(j *transport.Job, open []int) {
	defer c.jobWG.Done()
	pending := open
	// tried[i] is the worker addrs spec i was attempted on. A spec is in
	// exactly one dispatch group per wave and waves do not overlap, so
	// the elements need no lock.
	tried := make([]map[string]bool, len(j.Runs))
	for wave := 0; len(pending) > 0; wave++ {
		if wave > 0 && !c.backoffWait(wave) {
			for _, i := range pending {
				j.Finish(i, api.SpecStatus{State: api.StateFailed, Error: "fleet: coordinator shut down during retry backoff"})
			}
			return
		}
		ws := c.live()
		if len(ws) == 0 {
			c.mu.Lock()
			c.noWorkers++
			c.mu.Unlock()
			for _, i := range pending {
				j.Finish(i, api.SpecStatus{State: api.StateFailed, Error: ErrNoWorkers.Error()})
			}
			break
		}

		// Group this wave's specs by their rendezvous-chosen worker: the
		// highest-ranked live worker not yet tried for the spec (all
		// tried → highest-ranked anyway; the attempt cap bounds it).
		groups := make(map[*worker][]int)
		for _, i := range pending {
			ranked := rank(affinityKey(j.Runs[i]), ws)
			w := ranked[0]
			for _, cand := range ranked {
				if !tried[i][cand.addr] {
					w = cand
					break
				}
			}
			groups[w] = append(groups[w], i)
		}

		var mu sync.Mutex
		var failed []int
		var wg sync.WaitGroup
		for w, idxs := range groups {
			wg.Add(1)
			go func(w *worker, idxs []int) {
				defer wg.Done()
				f := c.dispatch(j, w, idxs, tried)
				mu.Lock()
				failed = append(failed, f...)
				mu.Unlock()
			}(w, idxs)
		}
		wg.Wait()

		// Failed specs either retry on a different worker or, at the
		// attempt cap, fail terminally.
		pending = pending[:0]
		for _, i := range failed {
			st := j.Spec(i)
			attempts, lastWorker, key := st.Attempts, st.Worker, j.Keys[i]
			if attempts >= c.cfg.RetryMax {
				msg := st.Error
				if msg == "" {
					msg = "all " + strconv.Itoa(attempts) + " attempts failed"
				}
				j.Finish(i, api.SpecStatus{State: api.StateFailed, Error: msg})
				continue
			}
			c.mu.Lock()
			c.retries++
			c.mu.Unlock()
			if sp := c.cfg.Spans.Start(j.Trace, j.Root, "retry"); sp != nil {
				sp.SetAttr("spec_key", key).
					SetAttr("attempt", strconv.Itoa(attempts+1)).
					SetAttr("worker", lastWorker).
					End()
			}
			c.cfg.Logger.Warn("spec retry", "job", j.ID, "spec", key,
				"attempt", attempts+1, "failed_worker", lastWorker)
			pending = append(pending, i)
		}
	}
}

// backoff returns the pre-wave delay: RetryBackoff doubling per wave,
// capped at 16x (wave 5 onward).
func (c *Coordinator) backoff(wave int) time.Duration {
	if wave > 5 {
		wave = 5
	}
	return c.cfg.RetryBackoff << (wave - 1)
}

// backoffWait sleeps out the pre-wave delay, reporting false if
// Shutdown (which stops the prober) interrupts it.
func (c *Coordinator) backoffWait(wave int) bool {
	t := time.NewTimer(c.backoff(wave))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.probeDone:
		return false
	}
}

// dispatch sends one batch of specs to one worker as a worker-side job
// and reconciles the outcome: from the worker's 202 when its store held
// every spec, else from its SSE stream, and from a final status poll
// only when the stream ended before reporting every spec terminal. The
// artifacts ride in those statuses and events. It returns the indices
// that need another attempt: every index on batch-level failure (submit
// error, stream + status loss, timeout), or the subset that came back
// unfinished or with corrupt artifact bytes. A spec the worker ran and
// reported failed is final: runs are deterministic, so it would fail
// the same way on every worker.
func (c *Coordinator) dispatch(j *transport.Job, w *worker, idxs []int, tried []map[string]bool) (failed []int) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.BatchTimeout)
	defer cancel()

	// Mark the attempt before any wire traffic, so a crash mid-flight
	// still shows where the spec was.
	byKey := make(map[string][]int, len(idxs))
	req := api.JobRequest{
		Tenant: j.Tenant,
		// The coordinator job root is the remote parent: the worker's
		// own job span tree hangs under it, and the engine stamps the
		// shared trace id into its run records.
		Traceparent: spans.TraceContext{TraceID: j.TraceID, SpanID: j.SpanID}.Traceparent(),
	}
	j.Running(w.addr, idxs...)
	for _, i := range idxs {
		if tried[i] == nil {
			tried[i] = make(map[string]bool, 2)
		}
		tried[i][w.addr] = true
		byKey[j.Keys[i]] = append(byKey[j.Keys[i]], i)
		req.Specs = append(req.Specs, j.Wire[i])
	}
	w.mu.Lock()
	w.dispatched += uint64(len(idxs))
	w.mu.Unlock()

	sp := c.cfg.Spans.Start(j.Trace, j.Root, "dispatch")
	if sp != nil {
		sp.SetAttr("worker", w.addr).SetAttr("specs", strconv.Itoa(len(idxs)))
	}
	defer func() {
		if sp != nil {
			sp.SetAttr("failed", strconv.Itoa(len(failed))).End()
		}
	}()

	acc, err := w.client.Submit(ctx, req)
	if err != nil {
		j.Note(idxs, "submit to "+w.addr+": "+err.Error())
		return idxs
	}
	if acc.Status != nil {
		// The worker's store held every spec: the batch came back
		// finished in its 202, so there is nothing to stream or poll.
		return c.reconcile(ctx, j, w, byKey, *acc.Status)
	}

	// Fan the worker's SSE stream into the coordinator job: spec
	// completions settle (and file their artifacts) as they happen, and
	// worker span events forward relabeled so one merged stream shows
	// the whole fleet. The stream is lossy and may die with the worker;
	// unless it reported every key terminal and closed with its done,
	// the final status poll below reconciles whatever it missed. Events
	// calls back on one goroutine.
	handled := make(map[string]bool, len(byKey))
	closed := false
	_ = w.client.Events(ctx, acc.ID, func(ev api.Event) bool {
		switch ev.Type {
		case "span":
			if ev.Span != nil {
				span := *ev.Span
				span.Attrs = make(map[string]string, len(ev.Span.Attrs)+1)
				for k, v := range ev.Span.Attrs {
					span.Attrs[k] = v
				}
				span.Attrs["worker"] = w.addr
				j.Publish(api.Event{Type: "span", Job: j.ID, Span: &span})
			}
		case "spec":
			if s := ev.Spec; s != nil && (s.State == api.StateDone || s.State == api.StateFailed) && !handled[s.SpecKey] {
				if is, ok := byKey[s.SpecKey]; ok {
					handled[s.SpecKey] = true
					failed = append(failed, c.settle(ctx, j, w, is, *s)...)
				}
			}
		case "done":
			closed = true
		}
		return true
	})
	if closed && len(handled) == len(byKey) {
		return failed
	}

	// Reconcile: the poll is the source of truth for every spec the
	// stream missed (or the whole batch, when the stream never ran).
	st, err := w.client.Wait(ctx, acc.ID)
	if err != nil {
		open := j.Open(idxs)
		j.Note(open, "worker "+w.addr+" lost mid-batch: "+err.Error())
		return open
	}
	return c.reconcile(ctx, j, w, byKey, st)
}

// reconcile settles a batch from the worker job's terminal status:
// byKey's done specs are fetched and filed, its failed ones are final,
// and the indices of any it left unfinished (or whose artifact failed
// to verify) come back for another attempt.
func (c *Coordinator) reconcile(ctx context.Context, j *transport.Job, w *worker, byKey map[string][]int, st api.JobStatus) (failed []int) {
	final := make(map[string]api.SpecStatus, len(st.Specs))
	for _, s := range st.Specs {
		final[s.SpecKey] = s
	}
	for key, is := range byKey {
		s, ok := final[key]
		if !ok || (s.State != api.StateDone && s.State != api.StateFailed) {
			j.Note(is, "worker "+w.addr+" never finished spec")
			failed = append(failed, is...)
			continue
		}
		failed = append(failed, c.settle(ctx, j, w, is, s)...)
	}
	return failed
}

// settle finishes the indices of one spec key from the terminal status
// its worker reported: a failure is final, and a done spec's artifact
// is filed into the coordinator store. A fetch or verification failure
// returns the indices for retry — corrupt bytes from one worker re-run
// elsewhere.
func (c *Coordinator) settle(ctx context.Context, j *transport.Job, w *worker, idxs []int, s api.SpecStatus) (failed []int) {
	// Idempotence across stream + reconcile: terminal specs are skipped
	// inside Finish, but avoid double fetches up front too.
	if len(j.Open(idxs)) == 0 {
		return nil
	}
	if s.State == api.StateFailed {
		for _, i := range idxs {
			j.Finish(i, api.SpecStatus{State: api.StateFailed, Error: s.Error})
		}
		return nil
	}
	final, err := c.fileArtifact(ctx, j, w, s)
	if err != nil {
		j.Note(idxs, err.Error())
		return idxs
	}
	// Not the worker's StoreHit: a store hit is the coordinator's own
	// store answering at intake, and this spec was dispatched.
	final.Cached, final.WallMs = s.Cached, s.WallMs
	for _, i := range idxs {
		j.Finish(i, final)
	}
	return nil
}

// fileArtifact files the artifact of a done spec status s a worker
// reported and returns the done status it leaves the spec in. The bytes
// are the ones s carries, or else one fetch from the computing worker,
// and they must hash to s.SHA256 before they are filed under the job's
// tenant. A key stored at intake never gets here (the front end
// answered it); a key another job filed since intake is verified once
// more, and its Put is the store's duplicate no-op. A store that
// refuses verified bytes (quota, disk) is not a retry: the spec is done
// exactly as a worker reports it, with the store's error, the hash, and
// no result URL.
func (c *Coordinator) fileArtifact(ctx context.Context, j *transport.Job, w *worker, s api.SpecStatus) (api.SpecStatus, error) {
	key, data := s.SpecKey, s.Artifact
	done := api.SpecStatus{State: api.StateDone, ResultURL: api.PathResults + key}
	if data == nil {
		if sp := c.cfg.Spans.Start(j.Trace, j.Root, "fetch_result"); sp != nil {
			defer sp.SetAttr("worker", w.addr).SetAttr("spec_key", key).End()
		}
		var err error
		if data, _, err = w.client.Result(ctx, key); err != nil {
			return done, err
		}
	}
	done.SHA256 = engine.ArtifactSHA256(data)
	if s.SHA256 != "" && done.SHA256 != s.SHA256 {
		return done, &corruptError{worker: w.addr, key: key, got: done.SHA256, want: s.SHA256}
	}
	if _, err := c.cfg.Store.Put(j.Tenant, key, data); err != nil {
		done.Error, done.ResultURL = err.Error(), ""
	} else {
		done.Artifact = data
	}
	return done, nil
}

// corruptError reports a worker serving artifact bytes that do not
// hash to what it claimed — the fault the fleet tests inject.
type corruptError struct {
	worker, key, got, want string
}

func (e *corruptError) Error() string {
	return "corrupt artifact from " + e.worker + " for " + e.key +
		": got sha " + e.got[:12] + ", want " + e.want[:12]
}
