package api

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientTimeoutUnhangsWait is the regression test for the hung-
// worker stall: a server that accepts connections but never answers
// must not block Job/Wait/Result/Ready indefinitely when the client
// carries a per-request Timeout — even under a background context with
// no deadline of its own.
func TestClientTimeoutUnhangsWait(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	// Unblock any still-parked handler before Close waits on it.
	defer close(release)

	c := NewClient(ts.URL)
	c.Timeout = 50 * time.Millisecond
	ctx := context.Background()

	calls := []struct {
		name string
		call func() error
	}{
		{"Job", func() error { _, err := c.Job(ctx, "j0"); return err }},
		{"Wait", func() error { _, err := c.Wait(ctx, "j0"); return err }},
		{"Ping", func() error { _, err := c.Ping(ctx); return err }},
		{"Result", func() error { _, _, err := c.Result(ctx, "abc123"); return err }},
		{"Spans", func() error { _, err := c.Spans(ctx, "j0"); return err }},
		{"Ready", func() error { _, err := c.Ready(ctx); return err }},
		{"Submit", func() error { _, err := c.Submit(ctx, JobRequest{}); return err }},
	}
	for _, tc := range calls {
		start := time.Now()
		err := tc.call()
		if err == nil {
			t.Fatalf("%s against a hung server returned nil error", tc.name)
		}
		if wall := time.Since(start); wall > 2*time.Second {
			t.Fatalf("%s took %v against a hung server; Timeout not applied", tc.name, wall)
		}
		// The failure must be a deadline, not a server response.
		if !errors.Is(err, context.DeadlineExceeded) && !os.IsTimeout(err) {
			// net/http wraps the context error; string-level check as
			// the fallback for wrapper types that don't implement Is.
			if !containsTimeout(err) {
				t.Fatalf("%s error = %v, want a deadline/timeout error", tc.name, err)
			}
		}
	}
}

func containsTimeout(err error) bool {
	s := err.Error()
	for _, frag := range []string{"deadline exceeded", "timeout", "canceled"} {
		if contains(s, frag) {
			return true
		}
	}
	return false
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestClientTimeoutTightensNotLoosens: an already-tighter caller
// deadline wins over a looser client Timeout.
func TestClientTimeoutTightensNotLoosens(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)
	c := NewClient(ts.URL)
	c.Timeout = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Job(ctx, "j0"); err == nil {
		t.Fatal("hung Job returned nil")
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("caller deadline ignored: Job took %v", wall)
	}
}

// TestClientEventsStream decodes SSE frames and stops on the terminal
// done event.
func TestClientEventsStream(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		for _, frame := range []string{
			`{"type":"spec","job":"j1","done":1,"total":2}`,
			`not json at all`,
			`{"type":"done","job":"j1","done":2,"total":2}`,
		} {
			fmt.Fprintf(w, "data: %s\n\n", frame)
			fl.Flush()
		}
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Timeout = time.Second // must NOT cut the stream short
	var got []string
	err := c.Events(context.Background(), "j1", func(ev Event) bool {
		got = append(got, ev.Type)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "spec" || got[1] != "done" {
		t.Fatalf("events = %v, want [spec done]", got)
	}
}

// TestClientEventsLineLengths: the stream's line buffer starts small
// and grows to the 1 MiB cap, so a data line past the first 4 KiB and
// one just under the cap both decode, and one over the cap ends the
// stream with bufio.ErrTooLong.
func TestClientEventsLineLengths(t *testing.T) {
	const head, tail = `{"type":"span","job":"j1","span":{"name":"`, `","dur_us":1}}`
	for _, tc := range []struct {
		name string
		line int // bytes of the data line, "data: " included, '\n' not
		fits bool
	}{
		{"past 4 KiB", 5 << 10, true},
		{"just under 1 MiB", maxEventLine - 1, true},
		{"over 1 MiB", maxEventLine + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name := strings.Repeat("x", tc.line-len(dataPrefix)-len(head)-len(tail))
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/event-stream")
				fmt.Fprintf(w, "event: span\ndata: %s%s%s\n\n", head, name, tail)
				fmt.Fprint(w, "event: done\ndata: {\"type\":\"done\",\"job\":\"j1\"}\n\n")
			}))
			defer ts.Close()
			var got []Event
			err := NewClient(ts.URL).Events(context.Background(), "j1", func(ev Event) bool {
				got = append(got, ev)
				return true
			})
			if !tc.fits {
				if !errors.Is(err, bufio.ErrTooLong) || len(got) != 0 {
					t.Fatalf("a %d-byte line: err %v after %d events, want bufio.ErrTooLong before any", tc.line, err, len(got))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 || got[0].Span == nil || got[0].Span.Name != name || got[1].Type != "done" {
				t.Fatalf("a %d-byte line: got %d events, want the span (name of %d bytes) and done", tc.line, len(got), len(name))
			}
		})
	}
}

// waitServer is a one-job status endpoint: the job turns done when
// finish is closed. With honour set it parks a request carrying wait as
// hbatd does; without, it answers every request at once. It records when
// each status request arrived and the hold it asked for.
type waitServer struct {
	honour bool
	finish chan struct{}

	mu    sync.Mutex
	at    []time.Time
	holds []time.Duration
}

func (s *waitServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hold, err := time.ParseDuration(r.URL.Query().Get(WaitParam))
	if err != nil {
		http.Error(w, "no parseable wait on a Wait request: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.at = append(s.at, time.Now())
	s.holds = append(s.holds, hold)
	s.mu.Unlock()
	if s.honour {
		select {
		case <-s.finish:
		case <-time.After(hold):
		case <-r.Context().Done():
			return
		}
	}
	state := StateRunning
	select {
	case <-s.finish:
		state = StateDone
	default:
	}
	fmt.Fprintf(w, `{"api":"v1","id":"j1","state":%q,"total":1}`, state)
}

// finishAfter closes s.finish after d and returns where the closing
// time will be stored.
func (s *waitServer) finishAfter(d time.Duration) *atomic.Int64 {
	s.finish = make(chan struct{})
	var at atomic.Int64
	time.AfterFunc(d, func() {
		at.Store(time.Now().UnixNano())
		close(s.finish)
	})
	return &at
}

// TestWaitIsOneBlockingRequest: against a server that honours wait, a
// job finishing after 120 ms costs exactly one status request (it was
// four on the 50 ms tick) and Wait returns as the job finishes, not at
// the next tick.
func TestWaitIsOneBlockingRequest(t *testing.T) {
	// The lag is the best of three: a tick would miss 20 ms every time
	// (polls at 100 and 150 ms), a loaded host misses it now and then.
	for attempt := 1; ; attempt++ {
		s := &waitServer{honour: true}
		finished := s.finishAfter(120 * time.Millisecond)
		ts := httptest.NewServer(s)
		st, err := NewClient(ts.URL).Wait(context.Background(), "j1")
		lag := time.Since(time.Unix(0, finished.Load()))
		ts.Close()
		if err != nil || st.State != StateDone {
			t.Fatalf("Wait = %+v, %v; want a done job", st, err)
		}
		if len(s.at) != 1 {
			t.Errorf("Wait made %d status requests, want 1", len(s.at))
		}
		if s.holds[0] != waitHold {
			t.Errorf("hold sent = %v, want %v", s.holds[0], waitHold)
		}
		if lag <= 20*time.Millisecond {
			return
		}
		if attempt == 3 {
			t.Fatalf("Wait returned %v after the job finished, want under 20ms", lag)
		}
	}
}

// TestWaitDoesNotSpinOnAServerThatIgnoresWait: a server that answers
// every status at once is polled on the 50 ms floor, as it was before
// the parameter existed — never in a hot loop.
func TestWaitDoesNotSpinOnAServerThatIgnoresWait(t *testing.T) {
	s := &waitServer{}
	s.finishAfter(230 * time.Millisecond)
	ts := httptest.NewServer(s)
	defer ts.Close()

	start := time.Now()
	if st, err := NewClient(ts.URL).Wait(context.Background(), "j1"); err != nil || st.State != StateDone {
		t.Fatalf("Wait = %+v, %v; want a done job", st, err)
	}
	// One request up front, then one per floor tick.
	if most := int(time.Since(start)/waitFloor) + 1; len(s.at) > most || len(s.at) < 2 {
		t.Errorf("%d status requests in %v, want 2..%d (one per %v)", len(s.at), time.Since(start), most, waitFloor)
	}
}

// TestWaitHoldFitsInsideTimeout: the hold a client asks for is at most
// half its per-request Timeout, so a parked request is answered before
// the client gives up on it.
func TestWaitHoldFitsInsideTimeout(t *testing.T) {
	s := &waitServer{honour: true}
	s.finishAfter(150 * time.Millisecond)
	ts := httptest.NewServer(s)
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Timeout = 200 * time.Millisecond
	if st, err := c.Wait(context.Background(), "j1"); err != nil || st.State != StateDone {
		t.Fatalf("Wait = %+v, %v; want a done job (no request may time out)", st, err)
	}
	for _, h := range s.holds {
		if h > 100*time.Millisecond {
			t.Errorf("hold sent = %v with Timeout 200ms, want at most 100ms", h)
		}
	}
	if len(s.holds) != 2 {
		t.Errorf("Wait made %d status requests, want 2 (one per 100ms hold)", len(s.holds))
	}
}

// TestGoneJobIsATyped404Everywhere: a job id the server does not know
// comes back as *Error with Code 404 from every job call — also when the
// body leaves the code out — and Wait does not retry it.
func TestGoneJobIsATyped404Everywhere(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"api":"v1","message":"no job \"j0\""}`)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Wait", func() error { _, err := c.Wait(ctx, "j0"); return err }},
		{"Job", func() error { _, err := c.Job(ctx, "j0"); return err }},
		{"Spans", func() error { _, err := c.Spans(ctx, "j0"); return err }},
		{"Events", func() error { return c.Events(ctx, "j0", func(Event) bool { return true }) }},
		{"Result", func() error { _, _, err := c.Result(ctx, "abc123"); return err }},
	} {
		requests.Store(0)
		var apiErr *Error
		if err := tc.call(); !errors.As(err, &apiErr) || apiErr.Code != http.StatusNotFound || apiErr.Message != `no job "j0"` {
			t.Errorf("%s = %v, want the server's *Error with Code 404", tc.name, err)
		}
		if n := requests.Load(); n != 1 {
			t.Errorf("%s made %d requests for a gone job, want 1", tc.name, n)
		}
	}
}

// jobServer is a v1 job endpoint that counts its requests. Job jN has
// the one spec key kjN, whose artifact is artifact(jN). A job whose
// tenant is "stored" is finished at intake, and its 202 carries the
// status and the artifact; one whose tenant is "tampered" carries the
// status and bytes that do not hash to it; any other is accepted open.
// A status request answers any id done, carrying the artifact when
// inline is set (bytes that do not hash to it when tamper is also set),
// and a result request serves the key's artifact with its hash as the
// ETag.
type jobServer struct {
	seq, posts, gets, results atomic.Int64
	// size, when positive, is the length of every artifact.
	size           int
	inline, tamper bool
}

func (s *jobServer) artifact(id string) []byte {
	if s.size > 0 {
		return bytes.Repeat([]byte(id[:1]), s.size)
	}
	return []byte(`{"job":"` + id + `"}`)
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (s *jobServer) status(id string) JobStatus {
	return JobStatus{API: Version, ID: id, State: StateDone, Done: 1, Total: 1,
		Specs: []SpecStatus{{SpecKey: "k" + id, State: StateDone, StoreHit: true,
			ResultURL: PathResults + "k" + id, SHA256: sha256Hex(s.artifact(id))}}}
}

func (s *jobServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if key, ok := strings.CutPrefix(r.URL.Path, PathResults); ok {
		s.results.Add(1)
		data := s.artifact(strings.TrimPrefix(key, "k"))
		w.Header().Set("ETag", `"`+sha256Hex(data)+`"`)
		w.Write(data)
		return
	}
	if r.Method == http.MethodGet {
		s.gets.Add(1)
		id, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, PathJobs+"/"), "?")
		st := s.status(id)
		if s.inline {
			st.Specs[0].Artifact = s.artifact(id)
		}
		if s.tamper {
			st.Specs[0].Artifact = []byte("tampered")
		}
		json.NewEncoder(w).Encode(st)
		return
	}
	s.posts.Add(1)
	var req JobRequest
	json.NewDecoder(r.Body).Decode(&req)
	id := fmt.Sprintf("j%d", s.seq.Add(1))
	acc := JobAccepted{API: Version, ID: id, Total: 1, SpecKeys: []string{"k" + id}}
	if req.Tenant == "stored" || req.Tenant == "tampered" {
		st := s.status(acc.ID)
		st.Specs[0].Artifact = s.artifact(id)
		if req.Tenant == "tampered" {
			st.Specs[0].Artifact = []byte("tampered")
		}
		acc.Status = &st
	}
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(acc)
}

// requests is the number of requests s has served.
func (s *jobServer) requests() int64 { return s.posts.Load() + s.gets.Load() + s.results.Load() }

// TestStoredJobIsOneRequest: Submit, Wait and Result of a job finished
// at intake make one request, the POST: Result returns the artifact the
// 202 carried, with its hash as the ETag. A second Result for the key
// asks the server.
func TestStoredJobIsOneRequest(t *testing.T) {
	s := &jobServer{}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	acc, err := c.Submit(ctx, JobRequest{Tenant: "stored"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := s.artifact(acc.ID)
	for i, wantReqs := range []int64{1, 2} {
		data, etag, err := c.Result(ctx, st.Specs[0].SpecKey)
		if err != nil || !bytes.Equal(data, want) || etag != st.Specs[0].SHA256 {
			t.Fatalf("Result %d = %q, %s, %v; want %q with ETag %.12s", i+1, data, etag, err, want, st.Specs[0].SHA256)
		}
		if n := s.requests(); n != wantReqs {
			t.Errorf("Submit, Wait and %d Results of a stored job made %d requests, want %d", i+1, n, wantReqs)
		}
	}
}

// TestTamperedArtifactIsDropped: an inlined artifact that does not hash
// to its spec's SHA256 is neither kept nor left in the returned status,
// and Result returns the server's bytes.
func TestTamperedArtifactIsDropped(t *testing.T) {
	s := &jobServer{}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	acc, err := c.Submit(ctx, JobRequest{Tenant: "tampered"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.kept.arts) != 0 {
		t.Errorf("Submit kept %d artifacts that do not hash to their status", len(c.kept.arts))
	}
	if a := acc.Status.Specs[0].Artifact; a != nil {
		t.Errorf("Submit returned the status with the tampered artifact %q", a)
	}
	data, etag, err := c.Result(ctx, acc.SpecKeys[0])
	if want := s.artifact(acc.ID); err != nil || !bytes.Equal(data, want) || etag != sha256Hex(want) {
		t.Errorf("Result = %q, %s, %v; want the server's %q", data, etag, err, want)
	}
	if n := s.results.Load(); n != 1 {
		t.Errorf("Result made %d result requests, want 1", n)
	}
}

// TestOversizeArtifactsAreNotKept: a 202 whose artifacts total more
// than MaxInlineArtifacts leaves the status kept and no artifact, even
// one that hashes to its status.
func TestOversizeArtifactsAreNotKept(t *testing.T) {
	s := &jobServer{size: MaxInlineArtifacts + 1}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	acc, err := c.Submit(ctx, JobRequest{Tenant: "stored"})
	if err != nil {
		t.Fatal(err)
	}
	if c.kept.status == nil || len(c.kept.arts) != 0 {
		t.Errorf("an oversize 202 kept status %v and %d artifacts, want the status alone", c.kept.status != nil, len(c.kept.arts))
	}
	if _, _, err := c.Result(ctx, acc.SpecKeys[0]); err != nil || s.results.Load() != 1 {
		t.Errorf("Result = %v after %d result requests, want the server's answer", err, s.results.Load())
	}
}

// TestColdJobIsTwoRequests: Submit, Wait and Result of a job that is
// still open at its 202 make two requests, the POST and the status
// request: Wait keeps the artifact its terminal status carried, and
// Result returns it with its hash as the ETag. A second Result for the
// key asks the server, and so does a Result once Wait read a status
// carrying a tampered artifact.
func TestColdJobIsTwoRequests(t *testing.T) {
	s := &jobServer{inline: true}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	acc, err := c.Submit(ctx, JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := s.artifact(acc.ID)
	for i, wantReqs := range []int64{2, 3} {
		data, etag, err := c.Result(ctx, st.Specs[0].SpecKey)
		if err != nil || !bytes.Equal(data, want) || etag != st.Specs[0].SHA256 {
			t.Fatalf("Result %d = %q, %s, %v; want %q with ETag %.12s", i+1, data, etag, err, want, st.Specs[0].SHA256)
		}
		if n := s.requests(); n != wantReqs {
			t.Errorf("Submit, Wait and %d Results of a cold job made %d requests, want %d", i+1, n, wantReqs)
		}
	}

	s.tamper = true
	if st, err = c.Wait(ctx, acc.ID); err != nil || st.Specs[0].Artifact != nil {
		t.Fatalf("Wait = %+v, %v; want the status without its tampered artifact", st, err)
	}
	before := s.results.Load()
	if data, _, err := c.Result(ctx, st.Specs[0].SpecKey); err != nil || !bytes.Equal(data, s.artifact(acc.ID)) || s.results.Load() != before+1 {
		t.Errorf("Result after a tampered status = %q, %v; want the server's bytes from one fetch", data, err)
	}
}

// TestSubmitReplacesTheSlot: every successful Submit replaces what the
// previous one kept, so a 202 without a terminal status leaves nothing:
// neither the earlier job's status nor its artifact.
func TestSubmitReplacesTheSlot(t *testing.T) {
	s := &jobServer{}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	stored, err := c.Submit(ctx, JobRequest{Tenant: "stored"})
	if err != nil {
		t.Fatal(err)
	}
	if c.kept.status == nil || len(c.kept.arts) != 1 {
		t.Fatalf("a stored job's 202 kept status %v and %d artifacts, want both", c.kept.status != nil, len(c.kept.arts))
	}
	if _, err := c.Submit(ctx, JobRequest{}); err != nil {
		t.Fatal(err)
	}
	if c.kept.status != nil || c.kept.arts != nil {
		t.Errorf("a 202 without status left %+v kept", c.kept)
	}
	if _, err := c.Wait(ctx, stored.ID); err != nil || s.gets.Load() != 1 {
		t.Errorf("Wait for the replaced job = %v after %d status requests, want 1", err, s.gets.Load())
	}
	if _, _, err := c.Result(ctx, stored.SpecKeys[0]); err != nil || s.results.Load() != 1 {
		t.Errorf("Result for the replaced job = %v after %d result requests, want 1", err, s.results.Load())
	}
}

// TestWaitAnswersAJobItsSubmitSawFinish: Submit then Wait of a job
// finished at intake is one request, and Wait returns the status the
// 202 carried. Wait on another id, a second Wait on the same id, a Wait
// whose kept status a later Submit replaced, and a Wait after a 202
// without status each ask the server, as before.
func TestWaitAnswersAJobItsSubmitSawFinish(t *testing.T) {
	s := &jobServer{}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	submit := func(tenant string) JobAccepted {
		t.Helper()
		acc, err := c.Submit(ctx, JobRequest{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	// wait returns the job's status and the status requests Wait made.
	wait := func(id string) (JobStatus, int64) {
		t.Helper()
		before := s.gets.Load()
		st, err := c.Wait(ctx, id)
		if err != nil || st.ID != id || st.State != StateDone {
			t.Fatalf("Wait(%s) = %+v, %v; want that job done", id, st, err)
		}
		return st, s.gets.Load() - before
	}

	acc := submit("stored")
	if acc.Status == nil {
		t.Fatal("the stored job's 202 carries no status")
	}
	st, gets := wait(acc.ID)
	if gets != 0 || s.posts.Load() != 1 {
		t.Errorf("Submit+Wait of a job finished at intake made %d requests, want 1", s.posts.Load()+gets)
	}
	if !reflect.DeepEqual(st, *acc.Status) {
		t.Errorf("Wait = %+v, want the 202's status %+v", st, *acc.Status)
	}
	if _, gets := wait(acc.ID); gets != 1 {
		t.Errorf("a second Wait on %s made %d status requests, want 1", acc.ID, gets)
	}

	acc = submit("stored")
	if _, gets := wait("j0"); gets != 1 {
		t.Errorf("Wait on another id made %d status requests, want 1", gets)
	}
	if _, gets := wait(acc.ID); gets != 0 {
		t.Errorf("Wait on another id cost %s its kept status: %d status requests", acc.ID, gets)
	}

	first, second := submit("stored"), submit("stored")
	if _, gets := wait(first.ID); gets != 1 {
		t.Errorf("Wait on a job whose kept status was replaced made %d status requests, want 1", gets)
	}
	if _, gets := wait(second.ID); gets != 0 {
		t.Errorf("Wait on the last stored job made %d status requests, want 0", gets)
	}

	acc = submit("")
	if acc.Status != nil {
		t.Fatalf("an open job's 202 carries %+v", acc.Status)
	}
	if _, gets := wait(acc.ID); gets != 1 {
		t.Errorf("Wait after a 202 without status made %d status requests, want 1", gets)
	}
}

// TestConcurrentSubmitWaitGetsItsOwnJob: eight goroutines share one
// Client, each running Submit, Wait and Result on its own stored jobs;
// each Wait returns its own job's status and each Result its own job's
// bytes and hash, from the kept slot or the server.
func TestConcurrentSubmitWaitGetsItsOwnJob(t *testing.T) {
	s := &jobServer{}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for range 25 {
				acc, err := c.Submit(ctx, JobRequest{Tenant: "stored"})
				if err != nil {
					t.Error(err)
					return
				}
				st, err := c.Wait(ctx, acc.ID)
				if err != nil || st.ID != acc.ID || len(st.Specs) != 1 || st.Specs[0].SpecKey != "k"+acc.ID {
					t.Errorf("Wait(%s) = %+v, %v; want its own job's status", acc.ID, st, err)
					return
				}
				data, etag, err := c.Result(ctx, st.Specs[0].SpecKey)
				if want := s.artifact(acc.ID); err != nil || !bytes.Equal(data, want) || etag != st.Specs[0].SHA256 {
					t.Errorf("Result(%s) = %q, %s, %v; want its own job's %q", st.Specs[0].SpecKey, data, etag, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("200 jobs: %d status requests, %d result requests", s.gets.Load(), s.results.Load())
}

// countingBody counts the bytes read from a response body.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &c.n}
	}
	return resp, err
}

// TestErrorBodyIsCapped: a non-2xx body over the 64 KiB cap still comes
// back as *Error with the status code, and the client reads no more
// than the cap of it.
func TestErrorBodyIsCapped(t *testing.T) {
	const size = 1 << 20
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		w.Write(bytes.Repeat([]byte("x"), size))
	}))
	defer ts.Close()
	tr := &countingTransport{}
	c := NewClient(ts.URL)
	c.HTTP = &http.Client{Transport: tr}
	_, err := c.Job(context.Background(), "j1")
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadGateway {
		t.Fatalf("a %d-byte 502 body: %v, want *Error with Code 502", size, err)
	}
	if n := tr.n.Load(); n > maxErrorBody {
		t.Errorf("read %d bytes of a %d-byte error body, want at most %d", n, size, maxErrorBody)
	}
}

// TestSizedBodyIsOneAllocation: a 2xx body that declares its length is
// read into one buffer of that size; one that does not still reads
// whole.
func TestSizedBodyIsOneAllocation(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 5<<10)
	rd := bytes.NewReader(data)
	resp := &http.Response{ContentLength: int64(len(data)), Body: io.NopCloser(rd)}
	read := func() {
		rd.Reset(data)
		got, err := readBody(resp)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("readBody = %d bytes, %v; want the %d-byte body", len(got), err, len(data))
		}
	}
	if allocs := testing.AllocsPerRun(50, read); allocs != 1 {
		t.Errorf("a body of declared length took %v allocations, want 1", allocs)
	}
	resp.ContentLength = -1
	read()
}
