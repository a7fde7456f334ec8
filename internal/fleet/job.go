package fleet

// One coordinator job's life: specs shard to live workers by affinity
// rendezvous, each worker group goes out as one batch (a worker-side
// job), worker SSE streams fan back in as merged coordinator events,
// and each completed spec's artifact is fetched exactly once, verified
// against the worker-reported content hash, and filed into the
// coordinator store — the only place the coordinator serves results
// from. A batch that errors, times out, or returns corrupt bytes
// sends its unfinished specs into the next retry wave, which re-ranks
// them onto workers not yet tried — with capped exponential backoff
// between waves and a hard per-spec attempt cap. Workers that died
// mid-batch are (independently) demoted by the prober, so the next
// wave's live set no longer contains them: re-sharding on worker death
// falls out of rank() over the survivors.

import (
	"context"
	"strconv"
	"sync"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/transport"
)

// runJob drives a job to completion through retry waves.
func (c *Coordinator) runJob(j *transport.Job) {
	defer c.jobWG.Done()
	pending := make([]int, len(j.Runs))
	for i := range pending {
		pending[i] = i
	}
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
// and reconciles the outcome. It returns the indices that need another
// attempt: every index on batch-level failure (submit error, stream +
// status loss, timeout), or the subset that came back unfinished or
// with corrupt artifact bytes. A spec the worker ran and reported
// failed is final: runs are deterministic, so it would fail the same
// way on every worker.
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
		Traceparent: "00-" + j.TraceID + "-" + j.SpanID + "-01",
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

	// Fan the worker's SSE stream into the coordinator job: spec
	// completions reconcile (and fetch artifacts) as they happen, and
	// worker span events forward relabeled so one merged stream shows
	// the whole fleet. The stream is lossy and may die with the worker;
	// the final status poll below reconciles whatever it missed.
	handled := make(map[string]bool, len(byKey))
	var hmu sync.Mutex
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
			if ev.Spec != nil && ev.Spec.State == api.StateDone {
				hmu.Lock()
				seen := handled[ev.Spec.SpecKey]
				handled[ev.Spec.SpecKey] = true
				hmu.Unlock()
				if !seen {
					if is, ok := byKey[ev.Spec.SpecKey]; ok {
						c.completeSpec(ctx, j, w, is, *ev.Spec)
					}
				}
			}
		}
		return true
	})

	// Reconcile: the poll is the source of truth for every spec the
	// stream missed (or the whole batch, when the stream never ran).
	st, err := w.client.Wait(ctx, acc.ID)
	if err != nil {
		open := j.Open(idxs)
		j.Note(open, "worker "+w.addr+" lost mid-batch: "+err.Error())
		return open
	}
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
		if s.State == api.StateFailed {
			for _, i := range is {
				j.Finish(i, api.SpecStatus{State: api.StateFailed, Error: s.Error})
			}
			continue
		}
		failed = append(failed, c.completeSpec(ctx, j, w, is, s)...)
	}
	return failed
}

// completeSpec finishes one done spec reported by a worker: file its
// artifact into the coordinator store and mark every index sharing the
// spec key done. A fetch or verification failure returns the indices
// for retry — corrupt bytes from one worker re-run elsewhere.
func (c *Coordinator) completeSpec(ctx context.Context, j *transport.Job, w *worker, idxs []int, s api.SpecStatus) (failed []int) {
	// Idempotence across stream + reconcile: terminal specs are skipped
	// inside Finish, but avoid double fetches up front too.
	if len(j.Open(idxs)) == 0 {
		return nil
	}
	final, err := c.fileArtifact(ctx, j, w, s.SpecKey, s.SHA256)
	if err != nil {
		j.Note(idxs, err.Error())
		return idxs
	}
	final.Cached, final.StoreHit, final.WallMs = s.Cached, s.StoreHit, s.WallMs
	for _, i := range idxs {
		j.Finish(i, final)
	}
	return nil
}

// fileArtifact is the one fetch of a result and returns the done status
// it leaves the spec in. A key the coordinator store already holds is
// never re-fetched; otherwise the computing worker is asked for the
// bytes, which must hash to what the worker reported before they are
// filed under the job's tenant. A store that refuses verified bytes
// (quota, disk) is not a retry: the spec is done exactly as a worker
// reports it, with the store's error, the hash, and no result URL.
func (c *Coordinator) fileArtifact(ctx context.Context, j *transport.Job, w *worker, key, reported string) (api.SpecStatus, error) {
	done := api.SpecStatus{State: api.StateDone, ResultURL: api.PathResults + key}
	if _, sha, ok := c.cfg.Store.Get(key); ok {
		done.SHA256 = sha
		return done, nil
	}
	sp := c.cfg.Spans.Start(j.Trace, j.Root, "fetch_result")
	if sp != nil {
		defer sp.SetAttr("worker", w.addr).SetAttr("spec_key", key).End()
	}
	data, _, err := w.client.Result(ctx, key)
	if err != nil {
		return done, err
	}
	done.SHA256 = engine.ArtifactSHA256(data)
	if reported != "" && done.SHA256 != reported {
		return done, &corruptError{worker: w.addr, key: key, got: done.SHA256, want: reported}
	}
	if _, err := c.cfg.Store.Put(j.Tenant, key, data); err != nil {
		done.Error, done.ResultURL = err.Error(), ""
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
