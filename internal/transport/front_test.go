package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/spans"
	"hbat/internal/store"
)

// stubExec finishes every open spec inside Start, except while park is
// set: then the job stays open and is kept for the test to finish. It
// records the open indices of every Start.
type stubExec struct {
	park   bool
	parked []*Job
	starts [][]int
}

func (e *stubExec) Admit() error { return nil }

func (e *stubExec) Start(j *Job, open []int) {
	e.starts = append(e.starts, open)
	if e.park {
		e.parked = append(e.parked, j)
		return
	}
	for _, i := range open {
		j.Finish(i, api.SpecStatus{State: api.StateDone})
	}
}

// memStore is the memory-only store every test front end is given: a
// Front requires one in either role.
func memStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.New(store.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func (e *stubExec) Close(context.Context) error { return nil }

// TestShardInRange: a key whose hash has its top bit set still maps to
// a queue in [0, n). Converting the hash to int before the modulus made
// these keys negative on a 32-bit platform (on 386, "b", "c" and "d"
// went to shards -3, -2 and -1 of 4), an index that panics the pool;
// CI runs this test with GOARCH=386.
func TestShardInRange(t *testing.T) {
	for _, key := range []string{"b", "c", "d"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		if h.Sum32()>>31 == 0 {
			t.Fatalf("key %q hashes to %#x: the test needs the top bit set", key, h.Sum32())
		}
		for _, n := range []int{1, 3, 4, 7} {
			if s := shard(key, n); s < 0 || s >= n {
				t.Errorf("shard(%q, %d) = %d, want [0, %d)", key, n, s, n)
			}
		}
	}
}

// TestJobTableKeepsABoundedTailOfFinishedJobs pins the job table's
// bound: finished jobs past their grace leave FIFO once more than
// finishedJobsKept have finished after them, an evicted id answers the
// ordinary 404, and an open job is never evicted however many jobs
// finish around it.
func TestJobTableKeepsABoundedTailOfFinishedJobs(t *testing.T) {
	const extra = 5
	exec := &stubExec{}
	f := NewFront(Config{Store: memStore(t)}, exec)
	f.grace = 0 // every finished job is old enough to leave
	h := f.Handler()

	submit := func() string { return submitTo(t, h).ID }
	status := func(id string) int {
		code, _, _ := statusOf(t, h, api.PathJobs+"/"+id)
		return code
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

// TestJobTableKeepsAFinishedJobThroughItsGrace: how long a finished job
// stays addressable does not shrink with the job rate — within its grace
// it survives any number of later finishes, so a status request that the
// host delayed behind hundreds of other clients' jobs still finds it —
// and the first finish after the grace trims the table back to the
// count bound.
func TestJobTableKeepsAFinishedJobThroughItsGrace(t *testing.T) {
	f := NewFront(Config{Store: memStore(t)}, &stubExec{})
	f.grace = time.Hour
	h := f.Handler()
	status := func(id string) int {
		code, _, _ := statusOf(t, h, api.PathJobs+"/"+id)
		return code
	}

	first := submitTo(t, h).ID
	for i := 0; i < 2*finishedJobsKept; i++ {
		submitTo(t, h)
	}
	if got := status(first); got != http.StatusOK {
		t.Fatalf("a job finished within its grace, %d finishes ago: status %d, want 200", 2*finishedJobsKept, got)
	}
	f.grace = 0
	last := submitTo(t, h).ID
	if got := status(first); got != http.StatusNotFound {
		t.Fatalf("a job past its grace and %d finishes old: status %d, want 404", 2*finishedJobsKept+1, got)
	}
	if got := status(last); got != http.StatusOK {
		t.Fatalf("the newest finished job: status %d, want 200", got)
	}
	if n := len(f.jobs); n != finishedJobsKept {
		t.Fatalf("the table holds %d jobs after the grace, want %d", n, finishedJobsKept)
	}
}

// submitTo posts a one-spec test-scale job straight into h and returns
// its acceptance.
func submitTo(t *testing.T, h http.Handler) api.JobAccepted {
	t.Helper()
	return submitSpecs(t, h, testSpec(0))
}

// testSpec is a test-scale compress/T4 spec under seed.
func testSpec(seed uint64) api.SimOptions {
	return api.SimOptions{CommonOptions: api.CommonOptions{Scale: "test", Seed: seed}, Workload: "compress", Design: "T4"}
}

// submitSpecs submits one job of specs to h and returns its 202 answer.
func submitSpecs(t *testing.T, h http.Handler, specs ...api.SimOptions) api.JobAccepted {
	t.Helper()
	body, err := json.Marshal(api.JobRequest{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathJobs, bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var acc api.JobAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	return acc
}

// statusOf serves one GET of path from h and decodes the answer: a
// JobStatus on 200, an api.Error otherwise.
func statusOf(t *testing.T, h http.Handler, path string) (int, api.JobStatus, api.Error) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var (
		st   api.JobStatus
		fail api.Error
		err  error
	)
	if rec.Code == http.StatusOK {
		err = json.Unmarshal(rec.Body.Bytes(), &st)
	} else {
		err = json.Unmarshal(rec.Body.Bytes(), &fail)
	}
	if err != nil {
		t.Fatalf("GET %s: %d with undecodable body %q: %v", path, rec.Code, rec.Body, err)
	}
	return rec.Code, st, fail
}

// TestBlockingStatusIsAnsweredAtTheLastFinish: a status request with
// wait on an open job parks, and the job's last Finish answers it — with
// the terminal status, within 50 ms — instead of a timer.
func TestBlockingStatusIsAnsweredAtTheLastFinish(t *testing.T) {
	exec := &stubExec{park: true}
	h := NewFront(Config{TenantJobs: 1, Store: memStore(t)}, exec).Handler()
	acc := submitTo(t, h)

	type answer struct {
		code int
		st   api.JobStatus
		at   time.Time
	}
	answered := make(chan answer, 1)
	go func() {
		code, st, _ := statusOf(t, h, acc.StatusURL+"?wait=20s")
		answered <- answer{code, st, time.Now()}
	}()
	select {
	case a := <-answered:
		t.Fatalf("status of an open job with wait=20s answered before the job finished: %d %+v", a.code, a.st)
	case <-time.After(100 * time.Millisecond):
	}
	finished := time.Now()
	exec.parked[0].Finish(0, api.SpecStatus{State: api.StateDone, SHA256: "abc"})
	select {
	case a := <-answered:
		if a.code != http.StatusOK || a.st.State != api.StateDone || a.st.Done != 1 || a.st.Specs[0].SHA256 != "abc" {
			t.Errorf("parked status = %d %+v, want 200 with the terminal status", a.code, a.st)
		}
		if lag := a.at.Sub(finished); lag > 50*time.Millisecond {
			t.Errorf("parked status answered %v after the last Finish, want under 50ms", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked status was not answered by the last Finish")
	}
	// The answer comes after the quota refund: a closed-loop client's
	// next job is admitted under a one-open-job quota.
	submitTo(t, h)
}

// TestBlockingStatusHoldElapsesAndIsCapped: a hold that runs out answers
// 200 with the job's current, non-terminal status, and a hold above the
// server's cap is clamped to it, not refused.
func TestBlockingStatusHoldElapsesAndIsCapped(t *testing.T) {
	f := NewFront(Config{Store: memStore(t)}, &stubExec{park: true})
	f.maxHold = 300 * time.Millisecond // stands in for the 30 s maxStatusHold
	h := f.Handler()
	acc := submitTo(t, h)

	for _, tc := range []struct {
		wait     string
		min, max time.Duration
	}{
		{"25ms", 25 * time.Millisecond, 250 * time.Millisecond},
		{"1h", 300 * time.Millisecond, 2 * time.Second},
		{"0", 0, 250 * time.Millisecond},
	} {
		start := time.Now()
		code, st, _ := statusOf(t, h, acc.StatusURL+"?wait="+tc.wait)
		held := time.Since(start)
		if code != http.StatusOK || st.State != api.StateQueued || st.Total != 1 {
			t.Errorf("wait=%s on an open job = %d %+v, want 200 with the queued status", tc.wait, code, st)
		}
		if held < tc.min || held > tc.max {
			t.Errorf("wait=%s held the request %v, want %v..%v", tc.wait, held, tc.min, tc.max)
		}
	}
}

// TestBlockingStatusRefusesAMalformedWait: wait must be a non-negative
// duration; anything else is a typed 400 at once, whether the job is
// open or finished.
func TestBlockingStatusRefusesAMalformedWait(t *testing.T) {
	exec := &stubExec{park: true}
	h := NewFront(Config{Store: memStore(t)}, exec).Handler()
	open := submitTo(t, h)
	exec.park = false
	finished := submitTo(t, h)

	for _, acc := range []api.JobAccepted{open, finished} {
		for _, wait := range []string{"abc", "-1s", "30", "1s1"} {
			start := time.Now()
			code, _, fail := statusOf(t, h, acc.StatusURL+"?wait="+wait)
			if code != http.StatusBadRequest || fail.API != api.Version || fail.Code != http.StatusBadRequest || fail.Message == "" {
				t.Errorf("wait=%s = %d %+v, want a typed 400", wait, code, fail)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("wait=%s was refused after %v, want at once", wait, d)
			}
		}
	}
	// An empty wait, and parameters the API does not define, are no wait.
	if code, st, _ := statusOf(t, h, open.StatusURL+"?wait=&x=1"); code != http.StatusOK || st.State != api.StateQueued {
		t.Errorf("wait= (empty) = %d %+v, want the plain status", code, st)
	}
}

// TestBlockingStatusClientGoneLeavesNoGoroutine: a client that
// disconnects while parked ends the handler; nothing waits out the hold
// on its behalf.
func TestBlockingStatusClientGoneLeavesNoGoroutine(t *testing.T) {
	h := NewFront(Config{Store: memStore(t)}, &stubExec{park: true}).Handler()
	acc := submitTo(t, h)
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+acc.StatusURL+"?wait=30s", nil)
		if err != nil {
			done <- err
			return
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			err = errors.New("the parked status was answered")
		}
		done <- err
	}()
	// Parked: the server's connection and handler goroutines exist.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() < before+3 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked request ended with %v, want the client's cancellation", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked by a client that left while parked: %d before, %d after", before, n)
	}
}

// TestFinishedJobTailRetainsUnderFourKiBAJob pins what the tail costs:
// with finishedJobsKept finished one-spec jobs retained, the heap holds
// at most 4 KiB for each. At 16384 jobs of ~2 KiB, three front ends
// deep, this was 140 MiB of fleet-hit's resident set; a new Job field
// must not bring that back unnoticed.
func TestFinishedJobTailRetainsUnderFourKiBAJob(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	f := NewFront(Config{Store: memStore(t)}, &stubExec{})
	h := f.Handler()
	submitTo(t, h) // the front end's own one-time allocations
	before := heap()
	for i := 0; i < finishedJobsKept; i++ {
		submitTo(t, h)
	}
	after := heap()
	runtime.KeepAlive(f)
	if after < before {
		after = before
	}
	if per := (after - before) / finishedJobsKept; per > 4<<10 {
		t.Errorf("a retained finished job holds %d bytes of heap, want at most 4096", per)
	} else {
		t.Logf("a retained finished job holds %d bytes of heap", per)
	}
}

// TestIntakeAnswersStoredSpecs: intake finishes every spec whose key the
// store holds — done, a store hit, the stored hash and result URL, and
// a store_hit span — and hands the executor only the rest. A job whose
// specs all hit never reaches Executor.Start, and a stored artifact
// answers a tenant other than the one that filed it without charging
// it.
func TestIntakeAnswersStoredSpecs(t *testing.T) {
	st := memStore(t)
	spec, err := engine.SpecFromWire(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	key := spec.Hash()
	sha, err := st.Put("filer", key, []byte(`{"stored":true}`))
	if err != nil {
		t.Fatal(err)
	}
	tracer := spans.New()
	exec := &stubExec{park: true}
	h := NewFront(Config{Store: st, Spans: tracer}, exec).Handler()

	hit := func(t *testing.T, s api.SpecStatus) {
		t.Helper()
		if s.State != api.StateDone || !s.StoreHit || s.SHA256 != sha || s.ResultURL != api.PathResults+key ||
			s.Worker != "" || s.Attempts != 0 {
			t.Errorf("stored spec = %+v, want done, a store hit, sha %.12s and its result URL", s, sha)
		}
	}

	t.Run("all stored", func(t *testing.T) {
		acc := submitSpecs(t, h, testSpec(1), testSpec(1))
		if len(exec.starts) != 0 {
			t.Fatalf("a job whose specs are all stored reached Executor.Start with %v", exec.starts)
		}
		stored := []byte(`{"stored":true}`)
		if got := inlined(acc.Status); !reflect.DeepEqual(got, [][]byte{stored, stored}) {
			t.Errorf("the 202 carries artifacts %q, want %q twice", got, stored)
		}
		code, js, _ := statusOf(t, h, acc.StatusURL)
		if code != http.StatusOK || js.State != api.StateDone || js.Done != 2 {
			t.Fatalf("status = %d %+v, want the job done at intake", code, js)
		}
		for _, s := range js.Specs {
			hit(t, s)
		}
		var hits int
		for _, d := range tracer.SpansForTrace(acc.TraceID) {
			if d.Name == "store_hit" && d.Attrs["spec_key"] == key {
				hits++
			}
		}
		if hits != 2 {
			t.Errorf("%d store_hit spans for the job, want 2", hits)
		}
	})

	t.Run("one open", func(t *testing.T) {
		acc := submitSpecs(t, h, testSpec(2), testSpec(1))
		if !reflect.DeepEqual(exec.starts, [][]int{{0}}) {
			t.Fatalf("Executor.Start received open specs %v, want [[0]]", exec.starts)
		}
		if acc.Status != nil {
			t.Errorf("a job with an open spec got status %+v in its 202", acc.Status)
		}
		_, js, _ := statusOf(t, h, acc.StatusURL)
		if js.State == api.StateDone || js.Done != 1 || js.Specs[0].State != api.StateQueued {
			t.Errorf("status = %+v, want the stored spec done and the other queued", js)
		}
		if got := inlined(&js); got != nil {
			t.Errorf("a running job's status carries artifacts %q", got)
		}
		hit(t, js.Specs[1])
		exec.parked[0].Finish(0, api.SpecStatus{State: api.StateDone})
	})

	if got := st.Tenants(); !reflect.DeepEqual(got, map[string]int64{"filer": int64(len(`{"stored":true}`))}) {
		t.Errorf("store charges %v, want only the filer", got)
	}
}

// inlined returns the artifacts a job status carries, one per spec (nil
// for one without), or nil when it is nil or carries none.
func inlined(st *api.JobStatus) [][]byte {
	if st == nil {
		return nil
	}
	var arts [][]byte
	for _, sp := range st.Specs {
		arts = append(arts, sp.Artifact)
	}
	for _, a := range arts {
		if a != nil {
			return arts
		}
	}
	return nil
}

// TestStoredArtifactsInlineUpToTheCap: a job the store answers whole
// carries its artifacts in the 202, and a GET of its status carries
// them too, while they total at most api.MaxInlineArtifacts; one byte
// over, either carries the terminal status alone.
func TestStoredArtifactsInlineUpToTheCap(t *testing.T) {
	st := memStore(t)
	put := func(seed uint64, size int) api.SimOptions {
		t.Helper()
		o := testSpec(seed)
		spec, err := engine.SpecFromWire(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put("filer", spec.Hash(), bytes.Repeat([]byte{'x'}, size)); err != nil {
			t.Fatal(err)
		}
		return o
	}
	full, one := put(1, api.MaxInlineArtifacts), put(2, 1)
	h := NewFront(Config{Store: st}, &stubExec{}).Handler()

	acc := submitSpecs(t, h, full)
	_, js, _ := statusOf(t, h, acc.StatusURL)
	for _, st := range []*api.JobStatus{acc.Status, &js} {
		if arts := inlined(st); st == nil || len(arts) != 1 || len(arts[0]) != api.MaxInlineArtifacts {
			t.Errorf("a stored job of exactly the cap: status %v, %d artifacts; want both, inlined", st != nil, len(arts))
		}
	}
	acc = submitSpecs(t, h, full, one)
	if acc.Status == nil || acc.Status.State != api.StateDone {
		t.Fatalf("a stored job over the cap: status %+v, want it done at intake", acc.Status)
	}
	_, js, _ = statusOf(t, h, acc.StatusURL)
	for _, st := range []*api.JobStatus{acc.Status, &js} {
		if arts := inlined(st); arts != nil {
			t.Errorf("a stored job one byte over the cap carries %d artifacts, want none", len(arts))
		}
	}
}
