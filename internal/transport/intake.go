package transport

// Job intake: body bounds, tenant resolution, grid expansion, spec
// normalization, trace-identity extraction, admission, and the store
// lookup. A spec submitted in either role passes through here, so it
// lands in the same key space, carries the same trace identity
// semantics, and is answered from the store without an executor when
// its key is already there.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/spans"
	"hbat/internal/store"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// maxJobBody bounds a POST /v1/jobs body: room for tens of thousands of
// explicit specs at a few hundred bytes each, far above the default
// 1024-spec job.
const maxJobBody = 8 << 20

// jsonBufs recycles the buffers WriteJSON encodes bodies into.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteJSON writes v as the JSON body of a response with the given
// status code. The body is encoded whole first, so its length is
// declared and a client reads it into one buffer of that size, not one
// grown chunk by chunk (a terminal status carrying its artifacts is
// tens of KiB).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	json.NewEncoder(buf).Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// WriteErr writes a structured api.Error response.
func WriteErr(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, &api.Error{API: api.Version, Code: code, Message: fmt.Sprintf(format, args...)})
}

// ReadJSON decodes a request body of at most limit bytes into v. It
// answers a larger body 413 and a malformed one 400 ("bad <what>: …"),
// and reports whether the handler may go on.
func ReadJSON(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteErr(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, limit)
	} else {
		WriteErr(w, http.StatusBadRequest, "bad %s: %v", what, err)
	}
	return false
}

// resolveTenant resolves the caller's tenant: body field, then the
// X-Hbat-Tenant header, then "default". A name outside the tenant
// grammar (store.Tenant) is an error: the store writes the tenant into
// its file headers, and a space or newline there costs the artifact at
// the next restart.
func resolveTenant(r *http.Request, body *api.JobRequest) (string, error) {
	ten := cmp.Or(body.Tenant, r.Header.Get(api.TenantHeader), "default")
	if !store.Tenant(ten) {
		return "", fmt.Errorf("bad tenant %q: want 1-64 of [A-Za-z0-9._-]", ten)
	}
	return ten, nil
}

// gridAxes returns a grid's workload and design axes; nil axes default
// to the full Table 3 / Table 2 sets.
func gridAxes(g *api.Grid) (ws, ds []string) {
	ws, ds = g.Workloads, g.Designs
	if len(ws) == 0 {
		ws = workload.Names()
	}
	if len(ds) == 0 {
		ds = tlb.DesignOrder
	}
	return ws, ds
}

// requestSize is len(ExpandRequest(req)) without the expansion: the
// number intake holds against MaxSpecs before it allocates anything
// proportional to it.
func requestSize(req *api.JobRequest) int64 {
	n := int64(len(req.Specs))
	if req.Grid != nil {
		ws, ds := gridAxes(req.Grid)
		n += int64(len(ws)) * int64(len(ds))
	}
	return n
}

// ExpandRequest flattens a JobRequest into wire specs: the grid's
// workload × design product first, explicit specs after.
func ExpandRequest(req *api.JobRequest) []api.SimOptions {
	var specs []api.SimOptions
	if g := req.Grid; g != nil {
		ws, ds := gridAxes(g)
		for _, w := range ws {
			for _, d := range ds {
				o := g.Template
				o.Workload, o.Design = w, d
				specs = append(specs, o)
			}
		}
	}
	return append(specs, req.Specs...)
}

// NormalizeSpecs runs every wire spec through engine.SpecFromWire —
// the one normalization point the facade also uses — and returns the
// normalized runs alongside their initial queued statuses. The first
// malformed spec aborts the whole job.
func NormalizeSpecs(wire []api.SimOptions) ([]engine.RunSpec, []api.SpecStatus, error) {
	runs := make([]engine.RunSpec, 0, len(wire))
	sts := make([]api.SpecStatus, 0, len(wire))
	for _, o := range wire {
		spec, err := engine.SpecFromWire(o)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, spec)
		sts = append(sts, api.SpecStatus{
			SpecKey: spec.Hash(),
			Spec:    spec.String(),
			State:   api.StateQueued,
		})
	}
	return runs, sts, nil
}

// traceIdentity extracts a submission's trace context: the body
// traceparent wins over the header (per the wire contract), and an
// absent or malformed one — W3C restart semantics — mints a fresh
// trace id with no remote parent, so every accepted job has a trace
// id to correlate logs, statuses, and span journals by.
func traceIdentity(r *http.Request, req *api.JobRequest) (traceID, parentSpan string) {
	tp := req.Traceparent
	if tp == "" {
		tp = r.Header.Get(api.TraceparentHeader)
	}
	if tp != "" {
		if tc, err := spans.ParseTraceparent(tp); err == nil {
			return tc.TraceID, tc.SpanID
		}
	}
	return spans.NewTraceContext().TraceID, ""
}

// handleJobs serves POST /v1/jobs. Rejections come in a fixed order:
// 405, 413/400 (body), 400 (bad tenant), 400 (empty), 413 (too many
// specs), 400 (bad spec), 503 (executor or drain), 429 (tenant quota).
// The executor is asked to admit the job only when the store leaves a
// spec open: a job the store answers whole needs no worker or engine,
// and its 202 carries the terminal status a GET of it would serve, with
// the stored artifacts up to api.MaxInlineArtifacts (Front.render).
func (f *Front) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteErr(w, http.StatusMethodNotAllowed, "POST %s", api.PathJobs)
		return
	}
	var req api.JobRequest
	if !ReadJSON(w, r, maxJobBody, "job request", &req) {
		return
	}
	ten, err := resolveTenant(r, &req)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	annotate(r.Context(), ten, "")
	n := requestSize(&req)
	if n == 0 {
		WriteErr(w, http.StatusBadRequest, "job has no specs")
		return
	}
	if n > int64(f.cfg.MaxSpecs) {
		WriteErr(w, http.StatusRequestEntityTooLarge, "%d specs exceeds the %d-spec job limit", n, f.cfg.MaxSpecs)
		return
	}
	wire := ExpandRequest(&req)
	runs, sts, err := NormalizeSpecs(wire)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	stored, open := f.lookupStored(sts)
	if len(open) > 0 {
		if err := f.exec.Admit(); err != nil {
			WriteErr(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}

	traceID, parentSpan := traceIdentity(r, &req)
	annotate(r.Context(), "", traceID)
	j := &Job{
		ID:      newJobID(),
		Tenant:  ten,
		TraceID: traceID,
		SpanID:  spans.NewSpanID(),
		Keys:    make([]string, len(sts)),
		Wire:    wire,
		Runs:    runs,
		front:   f,
		specs:   sts,
		state:   api.StateQueued,
		subs:    make(map[uint64]chan *api.Event),

		finished: make(chan struct{}),
	}
	for i := range sts {
		j.Keys[i] = sts[i].SpecKey
	}

	// Admission: drain state and per-tenant open-job quota, checked and
	// charged under one lock so concurrent submissions cannot overshoot.
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		WriteErr(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	if q, open := f.cfg.TenantJobs, f.byTenant[ten]; q > 0 && open >= q {
		f.mu.Unlock()
		WriteErr(w, http.StatusTooManyRequests, "tenant %q has %d open jobs (limit %d)", ten, open, q)
		return
	}
	f.byTenant[ten]++
	f.jobs[j.ID] = j
	f.starting.Add(1)
	f.mu.Unlock()

	// The job root span: admission to completion, parented under the
	// submitting client's span (when one was propagated) and carrying
	// the job's own wire span id so whatever the executor starts can
	// parent under it in turn.
	if tr := f.cfg.Spans; tr.Enabled() {
		j.Trace = tr.NewTraceWith(j.TraceID, j.SpanID, parentSpan)
		j.Root = tr.Start(j.Trace, nil, "job").
			SetAttr("job", j.ID).
			SetAttr("tenant", ten).
			SetAttr("specs", strconv.Itoa(len(sts)))
	}
	f.cfg.Logger.Info("job accepted", "job", j.ID, "tenant", ten, "specs", len(sts), "trace_id", j.TraceID)

	acc := api.JobAccepted{
		API: api.Version, ID: j.ID, Tenant: ten, Total: len(sts),
		StatusURL: api.PathJobs + "/" + j.ID,
		EventsURL: api.PathJobs + "/" + j.ID + "/events",
		TraceID:   j.TraceID,
		SpecKeys:  j.Keys,
	}
	if f.cfg.Spans.Enabled() {
		acc.SpansURL = api.PathJobs + "/" + j.ID + "/spans"
	}
	for i, sha := range stored {
		if sha != "" {
			finishStored(j, i, sha, nil, f.cfg.Spans)
		}
	}
	if len(open) > 0 {
		f.exec.Start(j, open)
	} else {
		st := f.render(j.status())
		acc.Status = &st
	}
	f.starting.Done()
	WriteJSON(w, http.StatusAccepted, acc)
}

// lookupStored looks every spec key up in the store: stored[i] is the
// SHA-256 of spec i's stored artifact ("" when the store lacks it), and
// open lists the rest in submission order, the only specs the executor
// is handed. Intake finishes the stored specs once the job is admitted;
// a job whose specs all hit is done before its 202 is written, the 202
// carries its status, and it never reaches the executor.
func (f *Front) lookupStored(sts []api.SpecStatus) (stored []string, open []int) {
	stored = make([]string, len(sts))
	for i := range sts {
		if _, sha, ok := f.cfg.Store.Get(sts[i].SpecKey); ok {
			stored[i] = sha
		} else {
			open = append(open, i)
		}
	}
	return stored, open
}

// finishStored finishes spec idx from the store: done, a store hit,
// the stored hash and the result URL, and a store_hit span under the
// job root. data, the stored bytes, goes on the spec's event.
func finishStored(j *Job, idx int, sha string, data []byte, spans *spans.Tracer) {
	key := j.Keys[idx]
	if sp := spans.Start(j.Trace, j.Root, "store_hit"); sp != nil {
		sp.SetAttr("spec_key", key).End()
	}
	j.Finish(idx, api.SpecStatus{
		State: api.StateDone, StoreHit: true,
		ResultURL: api.PathResults + key, SHA256: sha, Artifact: data,
	})
}
