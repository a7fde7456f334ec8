package transport_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/obs"
	"hbat/internal/promtext"
	"hbat/internal/spans"
	"hbat/internal/store"
	"hbat/internal/transport"
)

// scrape renders the service's extra families exactly as hbatd's
// /metrics does and validates the exposition with promtext.ParseExposition.
func scrape(t *testing.T, svc *transport.Service) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteExposition(&buf, svc.MetricsFamilies()); err != nil {
		t.Fatalf("write exposition: %v", err)
	}
	if n, err := promtext.ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid after %d samples: %v\n%s", n, err, buf.String())
	}
	return buf.String()
}

// TestREDMetrics drives the API across routes and tenants and checks
// the RED families: counters keyed by route template, tenant, and
// status class; a valid duration histogram; and the
// live-state gauges.
func TestREDMetrics(t *testing.T) {
	svc, ts, _ := newService(t, transport.Config{Workers: 2, Spans: spans.New()})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()

	c := api.NewClient(ts.URL)
	c.Tenant = "acme"
	if _, err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, acc.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(ctx, "jdoesnotexist"); err == nil {
		t.Fatal("unknown job served")
	}

	out := scrape(t, svc)
	for _, want := range []string{
		`hbat_fabric_requests{route="/v1/ping",tenant="acme",class="2xx"} 1`,
		`hbat_fabric_requests{route="/v1/jobs",tenant="acme",class="2xx"} 1`,
		`hbat_fabric_requests{route="/v1/jobs/{id}",tenant="acme",class="4xx"} 1`,
		`hbat_fabric_request_duration_ms_bucket{route="/v1/jobs",tenant="acme",le="+Inf"} 1`,
		`hbat_fabric_request_duration_ms_count{route="/v1/jobs",tenant="acme"} 1`,
		`hbat_fabric_queue_depth{shard="0"}`,
		`hbat_fabric_queue_depth{shard="1"}`,
		`hbat_fabric_store_quota_bytes 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Status polls land on the templated route, never raw job-id paths.
	if strings.Contains(out, acc.ID) {
		t.Errorf("exposition leaks a raw job id (unbounded cardinality):\n%s", out)
	}
	// The finished job's artifact is attributed to the tenant.
	if !strings.Contains(out, `hbat_fabric_store_tenant_bytes{tenant="acme"}`) {
		t.Errorf("no store bytes gauge for tenant acme:\n%s", out)
	}
}

// TestTenantLabelIsBounded: tenants are client-chosen, so the label
// they become must not be. A thousand distinct tenants submit jobs (and
// two hundred already own bytes in the store, as after a restart); every
// tenant-labelled family exports at most the 64 first-seen names plus
// "other", the overflow is still counted, and the exposition stays
// valid.
func TestTenantLabelIsBounded(t *testing.T) {
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := st.Put(fmt.Sprintf("stored-%03d", i), fmt.Sprintf("%04x", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	svc, ts, _ := newService(t, transport.Config{Workers: 2, Store: st})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()

	const tenants = 1000
	var last api.JobAccepted
	for i := 0; i < tenants; i++ {
		c := api.NewClient(ts.URL)
		c.Tenant = fmt.Sprintf("tenant-%04d", i)
		if last, err = c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := api.NewClient(ts.URL).Wait(ctx, last.ID); err != nil {
		t.Fatal(err)
	}

	out := scrape(t, svc)
	sample := regexp.MustCompile(`(?m)^(hbat_\w+)\{[^}]*tenant="([^"]*)"[^}]*\} (\S+)$`)
	values := map[string]map[string]bool{}
	var submitted float64
	for _, m := range sample.FindAllStringSubmatch(out, -1) {
		if values[m[1]] == nil {
			values[m[1]] = map[string]bool{}
		}
		values[m[1]][m[2]] = true
		if m[1] == "hbat_fabric_requests" && strings.Contains(m[0], `route="/v1/jobs",`) {
			n, _ := strconv.ParseFloat(m[3], 64)
			submitted += n
		}
	}
	for _, fam := range []string{"hbat_fabric_requests", "hbat_fabric_request_duration_ms_count", "hbat_fabric_store_tenant_bytes"} {
		if n := len(values[fam]); n < 2 || !values[fam]["other"] {
			t.Errorf("%s: %d tenant values, other=%v; want the overflow folded into other", fam, n, values[fam]["other"])
		}
	}
	for name, vs := range values {
		if len(vs) > 65 {
			t.Errorf("%s exports %d tenant values, want at most 64 + other", name, len(vs))
		}
	}
	if submitted != tenants {
		t.Errorf("submissions counted across tenant labels = %v, want %d", submitted, tenants)
	}
}

// TestAccessLogHonorsLevelAndFormat asserts the middleware logs through
// the service's shared logger: JSON records carrying route, tenant,
// status, and trace_id at Info — and nothing at Warn, exactly like the
// -log-level flag every binary shares.
func TestAccessLogHonorsLevelAndFormat(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	svc, ts, _ := newService(t, transport.Config{Workers: 1, Logger: logger})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()

	c := api.NewClient(ts.URL)
	c.Tenant = "logger-tenant"
	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, acc.ID); err != nil {
		t.Fatal(err)
	}

	var access []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		if rec["msg"] == "http request" {
			access = append(access, rec)
			// One record, its keys in one order, whichever way the
			// middleware builds it.
			keys := regexp.MustCompile(`"(\w+)":`).FindAllStringSubmatch(sc.Text(), -1)
			var order []string
			for _, k := range keys {
				order = append(order, k[1])
			}
			want := []string{"time", "level", "msg", "method", "route", "tenant", "status", "wall_ms", "trace_id"}
			if _, traced := rec["trace_id"]; !traced {
				want = want[:len(want)-1]
			}
			if !slices.Equal(order, want) {
				t.Errorf("access log keys %v, want %v", order, want)
			}
		}
	}
	if len(access) == 0 {
		t.Fatalf("no access-log records at Info level:\n%s", buf.String())
	}
	var sawSubmit bool
	for _, rec := range access {
		if rec["route"] == api.PathJobs && rec["method"] == http.MethodPost {
			sawSubmit = true
			if rec["tenant"] != "logger-tenant" {
				t.Errorf("submit access log tenant = %v, want logger-tenant", rec["tenant"])
			}
			if rec["status"] != float64(http.StatusAccepted) {
				t.Errorf("submit access log status = %v, want 202", rec["status"])
			}
			if s, _ := rec["trace_id"].(string); len(s) != 32 {
				t.Errorf("submit access log trace_id = %v, want 32-hex id", rec["trace_id"])
			}
		}
	}
	if !sawSubmit {
		t.Fatalf("no access-log record for POST %s:\n%s", api.PathJobs, buf.String())
	}

	// At Warn the access log is silent.
	var quiet bytes.Buffer
	warnLogger := slog.New(slog.NewJSONHandler(&quiet, &slog.HandlerOptions{Level: slog.LevelWarn}))
	svc2, ts2, _ := newService(t, transport.Config{Workers: 1, Logger: warnLogger})
	defer ts2.Close()
	defer svc2.Shutdown(context.Background())
	if _, err := api.NewClient(ts2.URL).Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(quiet.String(), "http request") {
		t.Fatalf("access log not silenced at warn level:\n%s", quiet.String())
	}
}

// TestTracePropagation submits with a client traceparent and checks the
// job echoes the trace id, stamps it on statuses, and serves a span
// journal whose job root is parented under the client's span — with
// the engine's run tree joined to the same trace.
func TestTracePropagation(t *testing.T) {
	tr := spans.New()
	// The engine shares the service's tracer, exactly as hbatd wires
	// -spans: job spans and run spans land in one journal.
	eng := engine.New()
	eng.SetSpans(tr)
	svc, ts, _ := newService(t, transport.Config{Engine: eng, Workers: 2, Spans: tr})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()

	tc := spans.NewTraceContext()
	c := api.NewClient(ts.URL)
	acc, err := c.Submit(ctx, api.JobRequest{
		Specs:       []api.SimOptions{testSpec("compress", "T4")},
		Traceparent: tc.Traceparent(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc.TraceID != tc.TraceID {
		t.Fatalf("accepted trace_id = %q, want client's %q", acc.TraceID, tc.TraceID)
	}
	if acc.SpansURL == "" {
		t.Fatal("no spans_url on a span-traced server")
	}
	st, err := c.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != tc.TraceID {
		t.Fatalf("status trace_id = %q, want %q", st.TraceID, tc.TraceID)
	}

	raw, err := c.Spans(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, ds, err := spans.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("empty span journal for a finished job")
	}
	byName := map[string][]spans.SpanData{}
	for _, d := range ds {
		if d.TraceW3C != tc.TraceID {
			t.Fatalf("span %q trace_id = %q, want %q", d.Name, d.TraceW3C, tc.TraceID)
		}
		byName[d.Name] = append(byName[d.Name], d)
	}
	jobs := byName["job"]
	if len(jobs) != 1 {
		t.Fatalf("journal has %d job spans, want 1", len(jobs))
	}
	if jobs[0].RemoteParent != tc.SpanID {
		t.Fatalf("job root parented under %q, want the client span %q", jobs[0].RemoteParent, tc.SpanID)
	}
	runs := byName["run"]
	if len(runs) != 1 {
		t.Fatalf("journal has %d run spans, want 1", len(runs))
	}
	if runs[0].RemoteParent != jobs[0].SpanW3C {
		t.Fatalf("run root parented under %q, want the job span %q", runs[0].RemoteParent, jobs[0].SpanW3C)
	}
	for _, name := range []string{"queue_wait", "simulate"} {
		if len(byName[name]) == 0 {
			t.Errorf("journal has no %q span", name)
		}
	}
}

// TestTraceMintedWithoutClientContext: a bare curl-style submission
// still gets a server-minted trace id, and a malformed traceparent is
// treated as absent (W3C restart semantics), not rejected.
func TestTraceMintedWithoutClientContext(t *testing.T) {
	svc, ts, _ := newService(t, transport.Config{Workers: 1})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()

	c := api.NewClient(ts.URL)
	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.TraceID) != 32 {
		t.Fatalf("minted trace_id = %q, want 32 hex chars", acc.TraceID)
	}
	if acc.SpansURL != "" {
		t.Fatalf("spans_url %q advertised without span tracing", acc.SpansURL)
	}
	acc2, err := c.Submit(ctx, api.JobRequest{
		Specs:       []api.SimOptions{testSpec("compress", "T4")},
		Traceparent: "garbage-header",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(acc2.TraceID) != 32 || acc2.TraceID == acc.TraceID {
		t.Fatalf("malformed traceparent: trace_id = %q, want a fresh mint", acc2.TraceID)
	}

	// Spans endpoint on an untraced server: structured 404.
	resp, err := http.Get(ts.URL + api.PathJobs + "/" + acc.ID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("spans on untraced server -> %d, want 404", resp.StatusCode)
	}
}

// TestEventsStreamCarriesOnlyTheJobsOwnRuns: two tenants' /events
// streams are open at once over one traced engine, and each carries span
// events for its own job's runs only. One worker runs alice's long job
// (13 runs) ahead of bob's one spec, so bob's stream opens while alice's
// runs are still ending.
func TestEventsStreamCarriesOnlyTheJobsOwnRuns(t *testing.T) {
	tr := spans.New()
	eng := engine.New()
	eng.SetSpans(tr)
	svc, ts, _ := newService(t, transport.Config{Engine: eng, Workers: 1, Spans: tr})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	long := testSpec("compress", "")
	long.Scale = "small"
	type stream struct {
		own   []string
		spans chan []string // the spec_hash of each span event, at the stream's end
	}
	open := func(tenant string, subscribers int, req api.JobRequest) (*api.Client, api.JobAccepted, stream) {
		c := api.NewClient(ts.URL)
		c.Tenant = tenant
		acc, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		s := stream{own: acc.SpecKeys, spans: make(chan []string, 1)}
		go func() {
			var hashes []string
			err := c.Events(ctx, acc.ID, func(ev api.Event) bool {
				if ev.Type == "span" {
					hashes = append(hashes, ev.Span.Attrs["spec_hash"])
				}
				return true
			})
			if err != nil {
				t.Errorf("%s's stream: %v", tenant, err)
			}
			s.spans <- hashes
		}()
		for tr.Subscribers() < subscribers {
			if ctx.Err() != nil {
				t.Fatalf("%s's stream never subscribed to the span feed", tenant)
			}
			time.Sleep(time.Millisecond)
		}
		return c, acc, s
	}
	ac, alice, as := open("alice", 1, api.JobRequest{Grid: &api.Grid{Workloads: []string{"compress"}, Template: long}})
	_, _, bs := open("bob", 2, api.JobRequest{Specs: []api.SimOptions{testSpec("espresso", "T4")}})
	if st, err := ac.Job(ctx, alice.ID); err != nil || st.State == api.StateDone {
		t.Fatalf("alice's job %+v (%v) finished before bob's stream opened: nothing could leak", st, err)
	}

	for _, s := range []struct {
		tenant string
		stream
	}{{"alice", as}, {"bob", bs}} {
		for _, h := range <-s.spans {
			if !slices.Contains(s.own, h) {
				t.Errorf("%s's stream carried a span for spec %s, which is not one of its job's %v", s.tenant, h, s.own)
			}
		}
	}
}

// TestEventsSubscriberCleanup is the leak regression test: a client
// that abandons its /events stream mid-job must not leave its span
// subscription (or the handler goroutine) behind.
func TestEventsSubscriberCleanup(t *testing.T) {
	tr := spans.New()
	// One worker so a multi-spec job is still in flight while the
	// stream is open.
	svc, ts, _ := newService(t, transport.Config{Workers: 1, Spans: tr})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()

	c := api.NewClient(ts.URL)
	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{
		testSpec("compress", "T4"),
		testSpec("compress", "T2"),
		testSpec("compress", "M4"),
	}})
	if err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, ts.URL+api.PathJobs+"/"+acc.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The stream is live once the headers arrive; the span subscription
	// must exist now.
	deadline := time.Now().Add(5 * time.Second)
	for tr.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("span subscription never registered for the open stream")
		}
		time.Sleep(time.Millisecond)
	}

	// Abandon the stream mid-job.
	cancel()
	resp.Body.Close()
	for tr.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("span subscription leaked after client disconnect: %d live", tr.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := c.Wait(ctx, acc.ID); err != nil {
		t.Fatal(err)
	}
}
