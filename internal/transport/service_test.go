package transport_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hbat"
	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/store"
	"hbat/internal/transport"
)

// newService spins up an in-process fabric over a fresh engine and
// store, mounted on an httptest server. Callers own the Shutdown.
func newService(t *testing.T, cfg transport.Config) (*transport.Service, *httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New()
	if cfg.Engine == nil {
		cfg.Engine = eng
	} else {
		eng = cfg.Engine
	}
	if cfg.Store == nil {
		st, err := store.New(store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	svc, err := transport.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	return svc, ts, eng
}

func testSpec(workload, design string) api.SimOptions {
	return api.SimOptions{
		CommonOptions: api.CommonOptions{Scale: "test"},
		Workload:      workload,
		Design:        design,
	}
}

func TestPingAndErrors(t *testing.T) {
	svc, ts, _ := newService(t, transport.Config{Workers: 2})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()
	c := api.NewClient(ts.URL)
	if tool, err := c.Ping(ctx); err != nil || tool != "hbatd" {
		t.Fatalf("ping: tool %q, err %v; want hbatd", tool, err)
	}
	// Unknown job: structured 404.
	if _, err := c.Job(ctx, "jdeadbeef"); err == nil {
		t.Fatal("unknown job did not error")
	} else {
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != http.StatusNotFound {
			t.Fatalf("unknown job error = %v, want api.Error 404", err)
		}
	}
	// Bad spec: 400.
	if _, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("nope", "T4")}}); err == nil {
		t.Fatal("bad workload accepted")
	}
	// Empty job: 400.
	if _, err := c.Submit(ctx, api.JobRequest{}); err == nil {
		t.Fatal("empty job accepted")
	}
	// Absent result: 404; malformed key: 400.
	if _, _, err := c.Result(ctx, "abcdef123456"); err == nil {
		t.Fatal("absent result served")
	}
	resp, err := http.Get(ts.URL + api.PathResults + "../escape")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traversal key -> %d", resp.StatusCode)
	}
}

// TestServiceEndToEnd is the PR's acceptance test: four concurrent
// tenants submit overlapping grids; every spec simulates at most once
// across all of them (engine singleflight + store); a tenant that
// re-requests a spec another tenant simulated gets a store hit; the
// served artifact is byte-identical to what the in-process facade
// renders; and the service drains cleanly without leaking goroutines.
func TestServiceEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	svc, ts, eng := newService(t, transport.Config{Workers: 4})
	ctx := context.Background()

	// Four tenants, overlapping small grids: every tenant asks for the
	// shared (compress, T4) spec plus one private design.
	private := []string{"T1", "M8", "I4", "P8"}
	var wg sync.WaitGroup
	finals := make([]api.JobStatus, 4)
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := api.NewClient(ts.URL)
			c.Tenant = fmt.Sprintf("tenant-%d", i)
			acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{
				testSpec("compress", "T4"),
				testSpec("compress", private[i]),
			}})
			if err != nil {
				errs[i] = err
				return
			}
			if acc.Total != 2 || len(acc.SpecKeys) != 2 {
				errs[i] = fmt.Errorf("accepted %d specs", acc.Total)
				return
			}
			finals[i], errs[i] = c.Wait(ctx, acc.ID)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	for i, st := range finals {
		if st.State != api.StateDone {
			t.Fatalf("tenant %d job state %q: %+v", i, st.State, st)
		}
		for _, sp := range st.Specs {
			if sp.State != api.StateDone || sp.Error != "" {
				t.Fatalf("tenant %d spec %s: %+v", i, sp.Spec, sp)
			}
			if sp.SHA256 == "" || sp.ResultURL == "" {
				t.Fatalf("tenant %d spec %s missing result pointers: %+v", i, sp.Spec, sp)
			}
		}
	}

	// 5 unique specs across 8 requests: the engine must have executed
	// each exactly once, the rest served by memo/store.
	if exec := eng.State().Executed; exec != 5 {
		t.Errorf("engine executed %d specs, want 5 (4 tenants x shared spec deduped)", exec)
	}

	// A fifth tenant re-requests the shared spec: pure store hit, no
	// engine involvement.
	c := api.NewClient(ts.URL)
	c.Tenant = "late-tenant"
	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Specs[0].StoreHit {
		t.Fatalf("late tenant not served from store: %+v", st.Specs[0])
	}
	if exec := eng.State().Executed; exec != 5 {
		t.Errorf("store hit still touched the engine: executed = %d", exec)
	}

	// Byte identity: the served artifact equals the facade's rendering
	// of the same options, and the ETag is its SHA-256.
	data, etag, err := c.Result(ctx, acc.SpecKeys[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := hbat.Simulate(ctx, hbat.Options{
		CommonOptions: hbat.CommonOptions{Scale: "test"},
		Workload:      "compress",
		Design:        "T4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := engine.Artifact(res.Result); string(data) != string(want) {
		t.Errorf("served artifact differs from facade artifact:\n%s\nvs\n%s", data, want)
	}
	if etag != engine.ArtifactSHA256(data) {
		t.Errorf("ETag %q is not the artifact's SHA-256", etag)
	}

	// Conditional fetch: If-None-Match with the ETag is a 304.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+api.PathResults+acc.SpecKeys[0], nil)
	req.Header.Set("If-None-Match", `"`+etag+`"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional fetch -> %d, want 304", resp.StatusCode)
	}

	// Clean drain: Shutdown completes promptly, then rejects new jobs.
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}}); err == nil {
		t.Fatal("drained service accepted a job")
	} else {
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
			t.Fatalf("post-drain submit error = %v, want 503", err)
		}
	}
	ts.Close()

	// Goroutine-leak check: the worker pool, SSE streams, and enqueue
	// goroutines must all be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after drain", before, n)
	}
}

// TestTenantJobQuota rejects a tenant's second concurrent job with 429
// while the first is still open, and admits it again after.
func TestTenantJobQuota(t *testing.T) {
	svc, ts, _ := newService(t, transport.Config{Workers: 1, TenantJobs: 1})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()
	c := api.NewClient(ts.URL)
	c.Tenant = "greedy"

	// A 13-design grid on one worker keeps the job open long enough to
	// observe the quota deterministically from this goroutine.
	acc, err := c.Submit(ctx, api.JobRequest{Grid: &api.Grid{
		Workloads: []string{"compress"},
		Template:  api.SimOptions{CommonOptions: api.CommonOptions{Scale: "test"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Total != 13 {
		t.Fatalf("grid expanded to %d specs, want 13", acc.Total)
	}
	_, err = c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("second job error = %v, want api.Error 429", err)
	}
	// Another tenant is not affected.
	c2 := api.NewClient(ts.URL)
	c2.Tenant = "modest"
	if _, err := c2.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	// Once the first job completes, the quota is released.
	if _, err := c.Wait(ctx, acc.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}}); err != nil {
		t.Fatalf("post-completion submit rejected: %v", err)
	}
}

// TestEventsStream reads the SSE feed of a job and expects one "spec"
// event per spec and a terminal "done".
func TestEventsStream(t *testing.T) {
	svc, ts, _ := newService(t, transport.Config{Workers: 2})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()
	c := api.NewClient(ts.URL)

	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{
		testSpec("compress", "T4"),
		testSpec("espresso", "T4"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + acc.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var specs, dones int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Type {
		case "spec":
			specs++
			if ev.Spec == nil || ev.Spec.State != api.StateDone {
				t.Errorf("spec event without done status: %+v", ev)
			}
		case "done":
			dones++
			if ev.Done != 2 || ev.Total != 2 {
				t.Errorf("done event counts %d/%d, want 2/2", ev.Done, ev.Total)
			}
		}
		if ev.Type == "done" {
			break
		}
	}
	// The job may finish specs before the stream attaches, so allow
	// fewer spec events — but the terminal done must always arrive.
	if dones != 1 {
		t.Fatalf("saw %d done events (and %d spec events), want exactly 1", dones, specs)
	}
}

// TestManifestListsRuns checks /v1/manifest reports the engine's runs
// and the stored artifacts.
func TestManifestListsRuns(t *testing.T) {
	svc, ts, _ := newService(t, transport.Config{Workers: 1})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()
	c := api.NewClient(ts.URL)
	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, acc.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + api.PathManifest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var man struct {
		Runs      []json.RawMessage `json:"runs"`
		Artifacts []struct {
			Name   string `json:"name"`
			SHA256 string `json:"sha256"`
		} `json:"artifacts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		t.Fatal(err)
	}
	if len(man.Runs) != 1 {
		t.Errorf("manifest lists %d runs, want 1", len(man.Runs))
	}
	if len(man.Artifacts) != 1 || !strings.HasPrefix(man.Artifacts[0].Name, acc.SpecKeys[0]) {
		t.Errorf("manifest artifacts = %+v", man.Artifacts)
	}
}

// TestManifestListsTheIndex: on a disk-backed store holding more than
// its memory layer — a restarted store's disk-only entries plus newer
// ones that spilled — GET /v1/manifest lists every artifact, most
// recently used first, with the hash and size of its stored bytes, and
// the listing reads nothing back: the store's counters and its LRU
// order are what they were.
func TestManifestListsTheIndex(t *testing.T) {
	dir := t.TempDir()
	data := func(i int) []byte { return []byte(fmt.Sprintf("{\"artifact\": %d, \"pad\": \"%040d\"}", i, i)) }
	var keys []string
	for i := 0; i < 10; i++ {
		keys = append(keys, fmt.Sprintf("%012x", 0xa0+i))
	}
	first, err := store.New(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := first.Put("t", keys[i], data(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.New(store.Config{Dir: dir, MemBytes: 120})
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 10; i++ {
		if _, err := st.Put("t", keys[i], data(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.MemEvictions == 0 || s.MemBytes >= int64(10*len(data(0))) {
		t.Fatalf("store %+v holds every artifact in memory; the test needs some on disk only", s)
	}
	svc, ts, _ := newService(t, transport.Config{Workers: 1, Store: st})
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	order := st.Keys()
	var want []engine.ManifestArtifact
	for _, a := range order {
		i := slices.IndexFunc(keys, func(k string) bool { return k == a.Key })
		if i < 0 {
			t.Fatalf("the store lists unknown key %s", a.Key)
		}
		want = append(want, engine.ManifestArtifact{
			Name: a.Key + ".json", Path: api.PathResults + a.Key,
			SHA256: engine.ArtifactSHA256(data(i)), Bytes: int64(len(data(i))),
		})
	}
	if len(want) != len(keys) {
		t.Fatalf("the store lists %d artifacts, want %d", len(want), len(keys))
	}
	before := st.Stats()
	for pass := 0; pass < 2; pass++ {
		resp, err := http.Get(ts.URL + api.PathManifest)
		if err != nil {
			t.Fatal(err)
		}
		var man engine.Manifest
		err = json.NewDecoder(resp.Body).Decode(&man)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(man.Artifacts, want) {
			t.Errorf("pass %d: manifest artifacts\n%+v\nwant\n%+v", pass, man.Artifacts, want)
		}
	}
	if after := st.Stats(); after != before {
		t.Errorf("the manifest moved the store's counters: %+v, was %+v", after, before)
	}
	if after := st.Keys(); !reflect.DeepEqual(after, order) {
		t.Errorf("the manifest reordered the store: %v, was %v", after, order)
	}
}

// TestDialFabric: a job submitted through api.Client, under a tenant,
// returns the artifact bytes the facade renders for the same options
// locally.
func TestDialFabric(t *testing.T) {
	svc, ts, _ := newService(t, transport.Config{Workers: 2})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()

	c := api.NewClient(ts.URL)
	c.Tenant = "dialer"
	opts := hbat.Options{
		CommonOptions: hbat.CommonOptions{Scale: "test"},
		Workload:      "espresso",
		Design:        "M8",
	}
	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{{
		CommonOptions: opts.CommonOptions, Workload: opts.Workload, Design: opts.Design,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	remote, _, err := c.Result(ctx, st.Specs[0].SpecKey)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hbat.Simulate(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := engine.Artifact(local.Result); string(remote) != string(want) {
		t.Errorf("remote artifact differs from the local one:\n%s\nvs\n%s", remote, want)
	}
}

// TestJobLeavesNoResultInTheEngine: once the store has accepted a
// spec's artifact, hbatd drops the engine's memoized copy — the store
// answers the next request for that key — so a long-running daemon does
// not retain every result it ever computed. Asked directly, the engine
// simulates the spec afresh.
func TestJobLeavesNoResultInTheEngine(t *testing.T) {
	svc, ts, eng := newService(t, transport.Config{Workers: 1})
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	ctx := context.Background()
	c := api.NewClient(ts.URL)
	wire := testSpec("compress", "T4")
	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{wire}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, acc.ID); err != nil {
		t.Fatal(err)
	}
	spec, err := engine.SpecFromWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	if r := eng.Run(ctx, spec); r.Err != nil || r.Cached {
		t.Errorf("engine asked for a spec the store holds: err=%v cached=%v, want a fresh simulation", r.Err, r.Cached)
	}
	// The same job again is a store hit, not a simulation.
	acc, err = c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{wire}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Specs) != 1 || !st.Specs[0].StoreHit {
		t.Errorf("repeat job: %+v, want one store hit", st.Specs)
	}
}

// TestRestartServesFromTheStore is the daemon's restart semantic: the
// result store under -data-dir is the one durable tier. A second
// daemon — fresh engine, fresh store — mounted on the directory the
// first one filled reindexes it and answers the same spec as a store
// hit with the same SHA-256 and ETag, simulating nothing.
func TestRestartServesFromTheStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := api.JobRequest{Specs: []api.SimOptions{testSpec("compress", "T4")}}

	// runJob mounts a daemon on dir, runs the job to completion, fetches
	// its artifact and shuts the daemon down.
	runJob := func() (api.SpecStatus, string, *engine.Engine) {
		t.Helper()
		st, err := store.New(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		svc, ts, eng := newService(t, transport.Config{Workers: 1, Store: st})
		defer ts.Close()
		defer svc.Shutdown(ctx)
		c := api.NewClient(ts.URL)
		acc, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		js, err := c.Wait(ctx, acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.State != api.StateDone || len(js.Specs) != 1 {
			t.Fatalf("job: %+v", js)
		}
		_, etag, err := c.Result(ctx, acc.SpecKeys[0])
		if err != nil {
			t.Fatal(err)
		}
		return js.Specs[0], etag, eng
	}

	first, etag1, eng1 := runJob()
	if first.StoreHit || eng1.State().Executed != 1 {
		t.Fatalf("first daemon: store_hit=%v executed=%d, want one simulation", first.StoreHit, eng1.State().Executed)
	}
	second, etag2, eng2 := runJob()
	if !second.StoreHit {
		t.Errorf("restarted daemon did not serve from the store: %+v", second)
	}
	if exec := eng2.State().Executed; exec != 0 {
		t.Errorf("restarted daemon executed %d specs, want 0", exec)
	}
	if second.SHA256 != first.SHA256 || etag2 != etag1 || etag2 != second.SHA256 {
		t.Errorf("artifact changed across the restart: sha %s -> %s, etag %s -> %s",
			first.SHA256, second.SHA256, etag1, etag2)
	}
}

// TestShutdownWithAStatusRequestParked: a drain neither waits on a
// parked status request nor cuts it off — Shutdown returns once the job
// has run, and the request is answered with the terminal status by the
// same Finish.
func TestShutdownWithAStatusRequestParked(t *testing.T) {
	svc, ts, _ := newService(t, transport.Config{Workers: 1})
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := api.NewClient(ts.URL)

	// A small-scale run takes long enough for both calls below to find
	// the job open.
	spec := testSpec("compress", "T4")
	spec.Scale = "small"
	acc, err := c.Submit(ctx, api.JobRequest{Specs: []api.SimOptions{spec}})
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		st  api.JobStatus
		err error
	}
	answered := make(chan answer, 1)
	go func() {
		var a answer
		a.st, a.err = c.Wait(ctx, acc.ID)
		answered <- a
	}()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a status request parked: %v", err)
	}
	select {
	case a := <-answered:
		if a.err != nil || a.st.State != api.StateDone {
			t.Fatalf("parked status across the drain = %+v, %v; want the done job", a.st, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown returned, the job is done, and the parked status request is still unanswered")
	}
}
