package fleet_test

// One request script, hbatd's two roles: an in-process worker
// (transport.New) and an in-process coordinator (fleet.New) over one
// fleettest worker must answer every step with the same status code,
// the same api.Error shape, and the same headers, under the same tool
// name, job-id prefix and front-end metric families. Both are the one
// transport.Front; this test is what keeps them so.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/fleet"
	"hbat/internal/fleet/fleettest"
	"hbat/internal/obs"
	"hbat/internal/spans"
	"hbat/internal/store"
	"hbat/internal/transport"
)

// Both front ends run with these limits, so the script can reach them.
const (
	contractMaxSpecs   = 4
	contractTenantJobs = 1
)

// outcome is what the contract compares across front ends: everything
// in a response that does not name the job.
type outcome struct {
	Step        string
	Status      int
	ContentType string
	// ErrorOK is set when the body is a well-formed api.Error whose
	// code repeats the status line.
	ErrorOK bool
	// ETag is the artifact's strong ETag; both roles serve the same
	// bytes for the same spec, so it compares by value.
	ETag string
	// Events are the SSE event types streamed, in order.
	Events []string
	// Finished is the state a 202 carried in its status: "" for a job
	// with an open spec, whose 202 carries none.
	Finished string
}

// session is one front end under the script.
type session struct {
	t        *testing.T
	base     string
	shutdown func(context.Context) error
	families func() []obs.Family
	// counters sums, across the role's processes, the series of every
	// family their /metrics export (the traced sessions only).
	counters func() map[string]float64
	out      []outcome
	acc      api.JobAccepted // the last accepted job
	status   api.JobStatus   // its terminal status, once waited for
}

// do sends one request, records its outcome under step, and returns
// the body.
func (s *session) do(step string, want int, method, path string, body io.Reader, hdr map[string]string) []byte {
	s.t.Helper()
	req, err := http.NewRequest(method, s.base+path, body)
	if err != nil {
		s.t.Fatal(err)
	}
	req.Header.Set(api.TenantHeader, "contract")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Fatalf("%s: %v", step, err)
	}
	defer resp.Body.Close()
	o := outcome{
		Step: step, Status: resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		ETag:        resp.Header.Get("ETag"),
	}
	var data []byte
	if o.ContentType == "text/event-stream" {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				o.Events = append(o.Events, typ)
			}
		}
	} else if data, err = io.ReadAll(resp.Body); err != nil {
		s.t.Fatalf("%s: read body: %v", step, err)
	}
	if resp.StatusCode >= 400 {
		var e api.Error
		o.ErrorOK = json.Unmarshal(data, &e) == nil &&
			e.API == api.Version && e.Code == resp.StatusCode && e.Message != ""
		if !o.ErrorOK {
			s.t.Errorf("%s: %d body is not an api.Error: %q", step, resp.StatusCode, data)
		}
	}
	if resp.StatusCode != want {
		s.t.Errorf("%s: status %d, want %d (%s)", step, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	s.out = append(s.out, o)
	return data
}

func (s *session) get(step string, want int, path string) []byte {
	s.t.Helper()
	return s.do(step, want, http.MethodGet, path, nil, nil)
}

// submit posts a job body; on 202 it remembers the accepted job.
func (s *session) submit(step string, want int, body any) {
	s.t.Helper()
	raw, ok := body.([]byte)
	if !ok {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			s.t.Fatal(err)
		}
	}
	data := s.do(step, want, http.MethodPost, api.PathJobs, bytes.NewReader(raw), nil)
	if want == http.StatusAccepted && !s.t.Failed() {
		s.acc = api.JobAccepted{}
		if err := json.Unmarshal(data, &s.acc); err != nil {
			s.t.Fatalf("%s: %v", step, err)
		}
		if s.acc.Status != nil {
			s.out[len(s.out)-1].Finished = s.acc.Status.State
		}
	}
}

// wait polls the last accepted job to its terminal status.
func (s *session) wait() {
	s.t.Helper()
	st := waitJob(s.t, api.NewClient(s.base), s.acc.ID)
	if st.State != api.StateDone {
		s.t.Fatalf("job %s ended %s: %+v", s.acc.ID, st.State, st.Specs)
	}
	s.status = st
}

func contractSpec(scale string, seed uint64) api.SimOptions {
	return api.SimOptions{
		CommonOptions: api.CommonOptions{Scale: scale, Seed: seed},
		Workload:      "compress", Design: "T4",
	}
}

// runContract drives the whole script against one front end.
func runContract(s *session) {
	t := s.t
	var pong struct{ Pong string }
	if err := json.Unmarshal(s.get("ping", 200, api.PathPing), &pong); err != nil || pong.Pong != "hbatd" {
		t.Errorf("ping names tool %q (err %v), want hbatd in either role", pong.Pong, err)
	}

	// Method checks come before anything reads the request.
	s.get("jobs GET", 405, api.PathJobs)
	s.do("job POST", 405, http.MethodPost, api.PathJobs+"/j0", nil, nil)
	s.do("result POST", 405, http.MethodPost, api.PathResults+strings.Repeat("a", 12), nil, nil)

	// Intake rejections, in precedence order.
	s.submit("bad JSON", 400, []byte("{"))
	s.submit("empty job", 400, api.JobRequest{})
	s.submit("explicit specs over limit", 413, api.JobRequest{Specs: []api.SimOptions{
		contractSpec("test", 1), contractSpec("test", 2), contractSpec("test", 3),
		contractSpec("test", 4), contractSpec("test", 5),
	}})
	s.submit("grid over limit", 413, api.JobRequest{Grid: &api.Grid{
		Workloads: []string{"compress"}, Designs: []string{"T4", "T2", "T1", "M8", "M4"},
		Template: contractSpec("test", 1),
	}})
	// A few hundred KiB of axes whose product is 2.5e9 specs: refused
	// on the count, before anything that size is allocated.
	axis := make([]string, 50_000)
	for i := range axis {
		axis[i] = "w"
	}
	s.submit("grid product bomb", 413, api.JobRequest{Grid: &api.Grid{Workloads: axis, Designs: axis}})
	s.submit("oversize body", 413, bytes.Repeat([]byte(" "), 8<<20+1))
	bad := contractSpec("test", 1)
	bad.Workload = "nope"
	s.submit("malformed spec", 400, api.JobRequest{Specs: []api.SimOptions{bad}})
	// A tenant the store could not write into a file header: refused
	// whether it arrives in the body or the header.
	s.submit("bad body tenant", 400, api.JobRequest{Tenant: "team a", Specs: []api.SimOptions{contractSpec("test", 1)}})
	okJob, _ := json.Marshal(api.JobRequest{Specs: []api.SimOptions{contractSpec("test", 1)}})
	s.do("bad header tenant", 400, http.MethodPost, api.PathJobs, bytes.NewReader(okJob),
		map[string]string{api.TenantHeader: strings.Repeat("x", 65)})

	// Job routing.
	s.get("unknown job", 404, api.PathJobs+"/nosuchjob")
	s.submit("accepted", 202, api.JobRequest{Specs: []api.SimOptions{contractSpec("test", 1)}})
	if !strings.HasPrefix(s.acc.ID, "j") {
		t.Errorf("job id %q: want the j prefix in either role", s.acc.ID)
	}
	s.wait()
	s.get("status", 200, s.acc.StatusURL)
	s.get("unknown sub-endpoint", 404, s.acc.StatusURL+"/bogus")
	s.get("spans with tracing off", 404, s.acc.StatusURL+"/spans")
	s.get("events for a finished job", 200, s.acc.EventsURL)
	if ev := s.out[len(s.out)-1].Events; !reflect.DeepEqual(ev, []string{"spec", "done"}) {
		t.Errorf("late subscriber saw events %v, want [spec done]: the finished spec, then the done", ev)
	}

	// Results.
	s.get("malformed result key", 400, api.PathResults+"NOT-A-KEY")
	s.get("missing result", 404, api.PathResults+strings.Repeat("0", len(s.acc.SpecKeys[0])))
	spec := s.status.Specs[0]
	s.get("result", 200, spec.ResultURL)
	etag := s.out[len(s.out)-1].ETag
	if etag != `"`+spec.SHA256+`"` {
		t.Errorf("ETag %s, want the status sha %q", etag, spec.SHA256)
	}
	s.do("result revalidated", 304, http.MethodGet, spec.ResultURL, nil, map[string]string{"If-None-Match": etag})

	// Tenant quota: one open job per tenant, refunded when it finishes.
	s.submit("quota: first job", 202, api.JobRequest{Specs: []api.SimOptions{contractSpec("small", 7)}})
	s.submit("quota: second job refused", 429, api.JobRequest{Specs: []api.SimOptions{contractSpec("test", 2)}})

	// Blocking status: one request on the open job is held and answered
	// by its finish, with the terminal status; a malformed hold is refused
	// and a finished job answers at once, whatever the hold.
	s.get("malformed wait", 400, s.acc.StatusURL+"?wait=soon")
	var held api.JobStatus
	if err := json.Unmarshal(s.get("blocking status", 200, s.acc.StatusURL+"?wait=30s"), &held); err != nil || held.State != api.StateDone {
		t.Errorf("one status request with wait=30s returned %+v (err %v), want the done job", held, err)
	}
	start := time.Now()
	s.get("blocking status of a finished job", 200, s.acc.StatusURL+"?wait=30s")
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("a finished job held a wait=30s status for %v", d)
	}
	s.wait()
	s.submit("quota: re-admitted", 202, api.JobRequest{Specs: []api.SimOptions{contractSpec("test", 2)}})
	s.wait()

	// Drain: nothing new is admitted; what finished stays readable.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s.submit("draining", 503, api.JobRequest{Specs: []api.SimOptions{contractSpec("test", 3)}})
	s.get("status while drained", 200, s.acc.StatusURL)

	// The front end's families carry one name in either role.
	have := map[string]bool{}
	for _, f := range s.families() {
		have[f.Name] = true
	}
	for _, name := range []string{"hbat_fabric_requests", "hbat_fabric_request_duration_ms", "hbat_fabric_jobs_open"} {
		if !have[name] {
			t.Errorf("exposition lacks front-end family %s", name)
		}
	}
}

// runStoredSpec is the step "a stored spec never reaches the
// executor": a spec run once and then resubmitted is answered at
// intake. Neither a simulation nor a dispatch counts it, its status is
// a store hit that names no worker and no attempt, its 202 carries
// that status exactly as a GET of the job serves it, with the artifact
// exactly as a GET of the result serves it (the first run's, with its
// spec open, carries no status), and its job's span journal holds
// the store_hit span and neither executor's first span: a worker
// pool's queue_wait or a coordinator's dispatch.
func runStoredSpec(s *session) {
	t := s.t
	job := api.JobRequest{Specs: []api.SimOptions{contractSpec("test", 11)}}
	s.submit("stored spec: first run", 202, job)
	if s.acc.Status != nil {
		t.Errorf("the first run's 202 carries status %+v; its spec was open", s.acc.Status)
	}
	s.wait()
	before := s.counters()
	if before["hbat_sweep_runs_executed"] < 1 {
		t.Fatalf("the first run left hbat_sweep_runs_executed at %v: the scrape reads the wrong process", before["hbat_sweep_runs_executed"])
	}
	s.submit("stored spec: resubmitted", 202, job)
	carried := s.acc.Status
	var served api.JobStatus
	if err := json.Unmarshal(s.get("stored spec: status", 200, s.acc.StatusURL), &served); err != nil {
		t.Fatal(err)
	}
	if carried == nil || !reflect.DeepEqual(*carried, served) {
		t.Errorf("the stored job's 202 carries status %+v, want what GET serves: %+v", carried, served)
	}
	result := s.get("stored spec: result", 200, api.PathResults+s.acc.SpecKeys[0])
	if carried == nil || !bytes.Equal(carried.Specs[0].Artifact, result) {
		t.Errorf("the stored job's 202 carries status %+v, want the %d bytes GET serves as its artifact", carried, len(result))
	}
	s.wait()
	after := s.counters()
	for _, name := range []string{"hbat_sweep_runs_executed", "hbat_fleet_specs_dispatched"} {
		if after[name] != before[name] {
			t.Errorf("%s moved %v -> %v for a stored spec", name, before[name], after[name])
		}
	}
	if sp := s.status.Specs[0]; !sp.StoreHit || sp.Worker != "" || sp.Attempts != 0 {
		t.Errorf("resubmitted spec = %+v, want store_hit, no worker, 0 attempts", sp)
	}
	_, ds, err := spans.ReadJournal(bytes.NewReader(s.get("stored spec: spans", 200, s.acc.SpansURL)))
	if err != nil {
		t.Fatal(err)
	}
	hit := false
	for _, d := range ds {
		hit = hit || d.Name == "store_hit"
		if d.Name == "queue_wait" || d.Name == "dispatch" {
			t.Errorf("the resubmitted job reached the executor: %s span", d.Name)
		}
	}
	if !hit {
		t.Errorf("the resubmitted job's %d spans hold no store_hit span", len(ds))
	}
}

// scrape reads each base's /metrics and sums every family's series.
func scrape(t *testing.T, bases ...string) map[string]float64 {
	t.Helper()
	sums := make(map[string]float64)
	for _, base := range bases {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("%s/metrics: %q: %v", base, line, err)
			}
			name, _, _ := strings.Cut(line[:i], "{")
			sums[name] += v
		}
		resp.Body.Close()
	}
	return sums
}

// daemonMux mounts a role's /v1 handler beside its obs endpoints, as
// hbatd does.
func daemonMux(v1 http.Handler, cfg obs.Config) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/", v1)
	mux.Handle("/", obs.NewHandler(cfg))
	return mux
}

func TestV1ContractAcrossFrontEnds(t *testing.T) {
	guardGoroutines(t)

	// Worker role: the local executor behind the front end.
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := transport.New(transport.Config{
		Engine: engine.New(), Store: st, Workers: 2,
		MaxSpecs: contractMaxSpecs, TenantJobs: contractTenantJobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	// Coordinator role: the remote executor behind the same front end,
	// over one real worker.
	rig := fleettest.New(t, 1)
	coord, cl, _ := newCoord(t, rig, func(c *fleet.Config) {
		c.MaxSpecs, c.TenantJobs, c.Spans = contractMaxSpecs, contractTenantJobs, nil
	})

	sessions := []*session{
		{base: srv.URL, shutdown: svc.Shutdown, families: svc.MetricsFamilies},
		{base: cl.Base, shutdown: coord.Shutdown, families: coord.MetricsFamilies},
	}
	for i, name := range []string{"worker", "coordinator"} {
		s := sessions[i]
		t.Run(name, func(t *testing.T) {
			s.t = t
			runContract(s)
		})
	}
	compareSessions(t, sessions)

	// A stored spec never reaches the executor, in either role. The step
	// reads the job's spans, so it runs on a second pair that traces.
	eng := engine.New()
	tracer := spans.New()
	eng.SetSpans(tracer)
	tst, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tsvc, err := transport.New(transport.Config{Engine: eng, Store: tst, Workers: 2, Spans: tracer})
	if err != nil {
		t.Fatal(err)
	}
	tsrv := httptest.NewServer(daemonMux(tsvc.Handler(), obs.Config{Engine: eng, Spans: tracer, Extra: tsvc.MetricsFamilies}))
	t.Cleanup(tsrv.Close)
	t.Cleanup(func() { tsvc.Shutdown(context.Background()) })
	trig := fleettest.New(t, 1)
	tcoord, _, _ := newCoord(t, trig, nil)
	csrv := httptest.NewServer(daemonMux(tcoord.Handler(), obs.Config{Ready: tcoord.Accepting, Extra: tcoord.MetricsFamilies}))
	t.Cleanup(csrv.Close)

	traced := []*session{
		{base: tsrv.URL, counters: func() map[string]float64 { return scrape(t, tsrv.URL) }},
		{base: csrv.URL, counters: func() map[string]float64 { return scrape(t, csrv.URL, trig.Addrs()[0]) }},
	}
	for i, name := range []string{"stored spec on worker", "stored spec on coordinator"} {
		s := traced[i]
		t.Run(name, func(t *testing.T) {
			s.t = t
			runStoredSpec(s)
		})
	}
	compareSessions(t, traced)
	http.DefaultClient.CloseIdleConnections()
}

// compareSessions fails on every step the worker and the coordinator
// answered differently.
func compareSessions(t *testing.T, sessions []*session) {
	t.Helper()
	w, c := sessions[0].out, sessions[1].out
	if len(w) != len(c) {
		t.Fatalf("the worker answered %d steps, the coordinator %d", len(w), len(c))
	}
	for i := range w {
		if !reflect.DeepEqual(w[i], c[i]) {
			t.Errorf("front ends disagree:\n  worker      %+v\n  coordinator %+v", w[i], c[i])
		}
	}
}

// quotaAnswer is what TestStoreQuotaParityAcrossRoles compares across
// roles for one job: the parts of the spec status that say where its
// result went, and what GET of that result answered.
type quotaAnswer struct {
	State, Error, SHA256, ResultURL string
	ResultCode                      int
	ResultMessage                   string
}

// TestStoreQuotaParityAcrossRoles: a front-end store whose tenant quota
// refuses an artifact leaves the same trace in both roles. Three
// one-spec jobs as tenant q against a 1200-byte quota: the first
// artifact is filed, the next two do not fit, and each of those is
// done with the store's error and the artifact's hash but no result
// URL, its result is a 404, and nothing is charged to any other tenant.
// The quota sits on the front-end store only — the coordinator's
// worker keeps an unlimited one, so the refusal is the coordinator's.
func TestStoreQuotaParityAcrossRoles(t *testing.T) {
	guardGoroutines(t)
	const quota = 1200
	quotaStore := func() *store.Store {
		st, err := store.New(store.Config{TenantQuotaBytes: quota})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// run submits the three jobs to base and returns their answers and
	// the size of the first artifact.
	run := func(t *testing.T, base string) ([]quotaAnswer, int64) {
		ctx := context.Background()
		cl := api.NewClient(base)
		cl.Tenant = "q"
		var (
			out   []quotaAnswer
			first int64
		)
		for seed := uint64(1); seed <= 3; seed++ {
			acc, err := cl.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{contractSpec("test", seed)}})
			if err != nil {
				t.Fatal(err)
			}
			s := waitJob(t, cl, acc.ID).Specs[0]
			a := quotaAnswer{State: s.State, Error: s.Error, SHA256: s.SHA256, ResultURL: s.ResultURL, ResultCode: http.StatusOK}
			data, _, err := cl.Result(ctx, s.SpecKey)
			var e *api.Error
			switch {
			case errors.As(err, &e):
				a.ResultCode, a.ResultMessage = e.Code, e.Message
			case err != nil:
				t.Fatal(err)
			case seed == 1:
				first = int64(len(data))
			}
			out = append(out, a)
		}
		return out, first
	}

	wst := quotaStore()
	svc, err := transport.New(transport.Config{Engine: engine.New(), Store: wst, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		srv.Close()
	})
	cst := quotaStore()
	_, ccl, _ := newCoord(t, fleettest.New(t, 1), func(c *fleet.Config) { c.Store = cst })

	roles := []struct {
		name string
		base string
		st   *store.Store
	}{{"worker", srv.URL, wst}, {"coordinator", ccl.Base, cst}}
	answers := make([][]quotaAnswer, len(roles))
	for i, r := range roles {
		t.Run(r.name, func(t *testing.T) {
			got, first := run(t, r.base)
			answers[i] = got
			if first == 0 || first > quota || 2*first <= quota {
				t.Fatalf("the first artifact is %d bytes: the scenario needs one, and only one, to fit %d", first, quota)
			}
			if a := got[0]; a.State != api.StateDone || a.Error != "" || a.ResultURL == "" || a.ResultCode != http.StatusOK {
				t.Errorf("job 1 (fits the quota) = %+v, want done, filed and served", a)
			}
			for j, a := range got[1:] {
				if a.State != api.StateDone || a.Error == "" || a.SHA256 == "" || a.ResultURL != "" || a.ResultCode != http.StatusNotFound {
					t.Errorf("job %d (over the quota) = %+v, want done with the store's error, a hash, no result URL, and a 404", j+2, a)
				}
			}
			if tenants := r.st.Tenants(); !reflect.DeepEqual(tenants, map[string]int64{"q": first}) {
				t.Errorf("front-end store charges %v, want only q's %d bytes", tenants, first)
			}
		})
	}
	for j := range answers[0] {
		if len(answers[1]) == len(answers[0]) && !reflect.DeepEqual(answers[0][j], answers[1][j]) {
			t.Errorf("job %d: the roles disagree:\n  worker      %+v\n  coordinator %+v", j+1, answers[0][j], answers[1][j])
		}
	}
	http.DefaultClient.CloseIdleConnections()
}
