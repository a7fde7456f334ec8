package hbat

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hbat/api"
	"hbat/internal/runspan"
)

// Fabric is a handle to a sweep fabric: either a remote hbatd service
// or this process's shared engine. Both sides of the handle normalize
// specs identically (engine.SpecFromWire) and render artifacts through
// the same canonical form, so a caller cannot tell — byte for byte —
// where a result was simulated.
type Fabric struct {
	client *api.Client // nil in local mode
	// fallbackErr records why a Dial with a remote address ended up
	// local (see Remote).
	fallbackErr error
}

// Dial connects to the sweep fabric at addr (e.g.
// "http://127.0.0.1:9090"). An empty addr selects local mode — the
// process's shared engine — outright. A non-empty addr is probed with
// a version-checked ping; if the service is unreachable or speaks a
// different API version, Dial falls back to local mode rather than
// failing, and FallbackErr reports why. Simulation results are
// identical either way; only where the cycles burn differs.
func Dial(ctx context.Context, addr string) (*Fabric, error) {
	if addr == "" {
		return &Fabric{}, nil
	}
	c := api.NewClient(addr)
	if err := c.Ping(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return &Fabric{fallbackErr: fmt.Errorf("hbat: fabric %s unreachable, running locally: %w", addr, err)}, nil
	}
	return &Fabric{client: c}, nil
}

// Remote reports whether the fabric handle is backed by a remote
// service.
func (f *Fabric) Remote() bool { return f.client != nil }

// FallbackErr returns the reason a remote Dial fell back to local mode
// (nil when remote, or when local mode was requested).
func (f *Fabric) FallbackErr() error { return f.fallbackErr }

// SetTenant sets the tenant identity sent with remote requests. Local
// mode has no tenancy; the call is a no-op there.
func (f *Fabric) SetTenant(tenant string) {
	if f.client != nil {
		f.client.Tenant = tenant
	}
}

// Simulate runs one simulation through the fabric. In remote mode the
// spec travels as a one-spec job; the result is the server's stored
// artifact (which may have been simulated by another tenant entirely —
// that is the point). Observation-only options (Trace, IntervalEvery,
// Progress) do not cross the wire; requests carrying them are rejected
// in remote mode rather than silently dropped.
//
// A job id the server no longer knows when Simulate comes to wait on it
// (HTTP 404: a restarted daemon, or a finished job aged out of the
// server's tail) is resubmitted exactly once — the fabric_simulate span
// then carries resubmitted=1 — and a second failure is returned as is.
//
// Every remote Simulate mints a fresh W3C-style trace context and
// sends it with the job, so the server's job > run > simulate span
// tree parents under this call's fabric_simulate span: one trace
// across both processes, retrievable from the server with
// Client.Spans (or `hbat-trace remote`) under Result.TraceID. The
// client-side spans (submit, poll_wait, fetch_result) land in this
// process's shared span tracer when one is attached (SetSpanTracer);
// the trace context is sent regardless, so server-side spans and logs
// are correlated even for an untraced client.
func (f *Fabric) Simulate(ctx context.Context, o Options) (*Result, error) {
	if f.client == nil {
		return Simulate(ctx, o)
	}
	if o.Trace != nil || o.IntervalEvery > 0 || o.Progress != nil {
		return nil, fmt.Errorf("hbat: Trace/IntervalEvery/Progress are local-only options; run them without a remote fabric")
	}
	tc := runspan.NewTraceContext()
	tr := Spans()
	var (
		ft   runspan.TraceID
		root *runspan.Span
	)
	if tr.Enabled() {
		// The client root carries its own wire span id (tc.SpanID) and
		// no remote parent: it is where the cross-process trace begins.
		ft = tr.NewTraceWith(tc.TraceID, tc.SpanID, "")
		root = tr.Start(ft, nil, "fabric_simulate").SetAttr("addr", f.client.Base)
		if o.Workload != "" {
			root.SetAttr("workload", o.Workload)
		}
		if o.Design != "" {
			root.SetAttr("design", o.Design)
		}
	}
	fail := func(err error) (*Result, error) {
		if root != nil {
			root.SetAttr("error", err.Error())
			root.End()
		}
		return nil, err
	}

	// Submit and wait; once more if the wait finds the job id gone.
	var (
		acc api.JobAccepted
		st  api.JobStatus
	)
	for attempt := 0; ; attempt++ {
		sub := tr.Start(ft, root, "submit")
		var err error
		acc, err = f.client.Submit(ctx, api.JobRequest{
			Specs:       []api.SimOptions{o.wire()},
			Traceparent: tc.Traceparent(),
		})
		if err != nil {
			sub.End()
			return fail(err)
		}
		sub.SetAttr("job", acc.ID).End()

		wait := tr.Start(ft, root, "poll_wait")
		st, err = f.client.Wait(ctx, acc.ID)
		wait.End()
		if err == nil {
			break
		}
		var gone *api.Error
		if attempt > 0 || !errors.As(err, &gone) || gone.Code != http.StatusNotFound {
			return fail(err)
		}
		root.SetAttr("resubmitted", "1")
	}
	if len(st.Specs) != 1 {
		return fail(fmt.Errorf("hbat: fabric returned %d specs for a one-spec job", len(st.Specs)))
	}
	sp := st.Specs[0]
	if sp.State == api.StateFailed || sp.Error != "" {
		return fail(fmt.Errorf("hbat: remote simulation failed: %s", sp.Error))
	}

	fetch := tr.Start(ft, root, "fetch_result")
	data, _, err := f.client.Result(ctx, sp.SpecKey)
	fetch.End()
	if err != nil {
		return fail(err)
	}
	var wire api.Result
	if err := json.Unmarshal(data, &wire); err != nil {
		return fail(fmt.Errorf("hbat: malformed remote artifact: %w", err))
	}
	root.End()
	res := &Result{Result: wire, JobID: acc.ID, TraceID: acc.TraceID}
	if res.TraceID == "" {
		// A server predating span propagation does not echo the trace
		// id; the client-minted one still names the client-side spans.
		res.TraceID = tc.TraceID
	}
	return res, nil
}
