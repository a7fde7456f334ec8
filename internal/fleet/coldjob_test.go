package fleet_test

// Request counts of jobs that miss the store: the artifacts ride in the
// terminal statuses and spec events, so a job costs its client two
// round trips at any size up to api.MaxInlineArtifacts, and a
// coordinator's batch costs its worker two at any size.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/fleet"
	"hbat/internal/fleet/fleettest"
)

// sweep is a 13-design Figure 5 sweep of one workload at test scale.
func sweep(seed uint64) api.JobRequest {
	return api.JobRequest{Grid: &api.Grid{Workloads: []string{"compress"},
		Template: api.SimOptions{CommonOptions: api.CommonOptions{Scale: "test", Seed: seed}}}}
}

// coldJob runs req through a client of base — Submit, Wait, then
// Result for every spec, each checked against its status's hash — and
// returns the kinds of the requests the client made.
func coldJob(t *testing.T, base string, req api.JobRequest) []string {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	log := &requestLog{next: tr}
	cl := api.NewClient(base)
	cl.HTTP = &http.Client{Transport: log}
	ctx := context.Background()
	acc, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Status != nil {
		t.Fatalf("a cold job's 202 carries status %+v", acc.Status)
	}
	st := waitJob(t, cl, acc.ID)
	if st.State != api.StateDone {
		t.Fatalf("job %s: %s: %+v", acc.ID, st.State, st.Specs)
	}
	for _, sp := range st.Specs {
		data, etag, err := cl.Result(ctx, sp.SpecKey)
		if err != nil {
			t.Fatalf("result %s: %v", sp.SpecKey, err)
		}
		if sha := engine.ArtifactSHA256(data); sha != sp.SHA256 || etag != sp.SHA256 {
			t.Errorf("spec %s: artifact sha %.12s, etag %.12s, status sha %.12s", sp.SpecKey, sha, etag, sp.SHA256)
		}
	}
	return kinds(log.requests())
}

// workerLog builds a coordinator over one rig worker whose requests
// from the coordinator pass through rt (wrapping a requestLog), and
// returns a client of the coordinator and the log.
func workerLog(t *testing.T, rt func(http.RoundTripper) http.RoundTripper) (*api.Client, *requestLog) {
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	log := &requestLog{next: tr}
	_, cl, _ := newCoord(t, fleettest.New(t, 1), func(c *fleet.Config) {
		c.Client = func(addr string) *api.Client {
			wc := api.NewClient(addr)
			wc.HTTP = &http.Client{Transport: rt(log)}
			return wc
		}
	})
	return cl, log
}

// kinds names each logged request by its route; a Wait's consecutive
// status requests (one per hold) are one "status".
func kinds(reqs []string) []string {
	var out []string
	for _, r := range reqs {
		kind := r
		switch {
		case r == "POST "+api.PathJobs:
			kind = "submit"
		case strings.HasPrefix(r, "GET "+api.PathResults):
			kind = "result"
		case strings.HasPrefix(r, "GET "+api.PathJobs+"/") && strings.HasSuffix(r, "/events"):
			kind = "events"
		case strings.HasPrefix(r, "GET "+api.PathJobs+"/"):
			kind = "status"
		}
		if kind != "status" || len(out) == 0 || out[len(out)-1] != "status" {
			out = append(out, kind)
		}
	}
	return out
}

// waited is what a cold job costs its client at most the cap: the POST
// and one Wait, whose terminal status carries every artifact.
var waited = []string{"submit", "status"}

// TestColdJobRequestBudget: in either role, a cold 13-design sweep
// costs its client two round trips, the POST and one status request
// (more only while a slow job outlasts a hold), whose terminal status
// carries every artifact Result returns; it cost fifteen while Result
// fetched each one. Through a coordinator the worker sees the batch's
// POST and its event stream, whose spec events carry the artifacts: no
// result fetch and no status request.
func TestColdJobRequestBudget(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		guardGoroutines(t)
		if got := coldJob(t, fleettest.New(t, 1).Workers[0].Addr, sweep(101)); !reflect.DeepEqual(got, waited) {
			t.Errorf("a cold 13-design sweep made requests %q, want %q", got, waited)
		}
	})
	t.Run("coordinator", func(t *testing.T) {
		guardGoroutines(t)
		cl, log := workerLog(t, func(next http.RoundTripper) http.RoundTripper { return next })
		if got := coldJob(t, cl.Base, sweep(102)); !reflect.DeepEqual(got, waited) {
			t.Errorf("a cold 13-design sweep made requests %q, want %q", got, waited)
		}
		if got, want := kinds(log.requests()), []string{"submit", "events"}; !reflect.DeepEqual(got, want) {
			t.Errorf("the worker saw %q, want %q", log.requests(), want)
		}
	})
}

// TestFinishedBatchStreamsItsSpecs: a worker batch that finishes
// before the coordinator opens its event stream is reported on that
// stream, which opens with the finished specs and their artifacts: the
// worker sees the POST and the events GET, and no status request.
func TestFinishedBatchStreamsItsSpecs(t *testing.T) {
	guardGoroutines(t)
	cl, log := workerLog(t, func(next http.RoundTripper) http.RoundTripper { return finishedFirst{next} })
	if got := coldJob(t, cl.Base, sweep(105)); !reflect.DeepEqual(got, waited) {
		t.Errorf("a cold 13-design sweep made requests %q, want %q", got, waited)
	}
	if got, want := kinds(log.requests()), []string{"submit", "events"}; !reflect.DeepEqual(got, want) {
		t.Errorf("the worker saw %q, want %q", log.requests(), want)
	}
}

// finishedFirst holds each event stream request until the worker job
// it names has finished, waiting on a client of its own, which the
// request log does not see.
type finishedFirst struct{ next http.RoundTripper }

func (f finishedFirst) RoundTrip(r *http.Request) (*http.Response, error) {
	if path, ok := strings.CutSuffix(r.URL.Path, "/events"); ok {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		wc := api.NewClient(r.URL.Scheme + "://" + r.URL.Host)
		wc.HTTP = &http.Client{Transport: tr}
		if _, err := wc.Wait(r.Context(), strings.TrimPrefix(path, api.PathJobs+"/")); err != nil {
			return nil, err
		}
	}
	return f.next.RoundTrip(r)
}

// TestOversizeJobFetchesEachArtifact: the 130-spec Figure 5 grid's
// artifacts total more than api.MaxInlineArtifacts, so its terminal
// status carries none and its client fetches each one.
func TestOversizeJobFetchesEachArtifact(t *testing.T) {
	guardGoroutines(t)
	req := api.JobRequest{Grid: &api.Grid{Template: api.SimOptions{CommonOptions: api.CommonOptions{Scale: "test", Seed: 103}}}}
	want := slices.Concat(waited, strings.Fields(strings.Repeat("result ", 130)))
	if got := coldJob(t, fleettest.New(t, 1).Workers[0].Addr, req); !reflect.DeepEqual(got, want) {
		t.Errorf("the cold 130-spec grid made %d requests %q, want %d: submit, status, 130 results", len(got), got, len(want))
	}
}

// TestCutStreamFallsBackToWait: a worker's event stream that ends after
// its first spec event leaves the coordinator one status request to
// reconcile the batch, and a fetch for each artifact that status does
// not carry: none from a worker that inlines them, the other twelve
// from one whose statuses carry no artifacts.
func TestCutStreamFallsBackToWait(t *testing.T) {
	for _, tc := range []struct {
		name  string
		strip bool
		want  []string
	}{
		{"inline status", false, []string{"submit", "events", "status"}},
		{"bare status", true, append([]string{"submit", "events", "status"},
			strings.Fields(strings.Repeat("result ", 12))...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			guardGoroutines(t)
			cl, log := workerLog(t, func(next http.RoundTripper) http.RoundTripper {
				return &streamCutter{next: next, strip: tc.strip}
			})
			if got := coldJob(t, cl.Base, sweep(104)); !reflect.DeepEqual(got, waited) {
				t.Errorf("a cold 13-design sweep made requests %q, want %q", got, waited)
			}
			if got := kinds(log.requests()); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("the worker saw %q, want %q", log.requests(), tc.want)
			}
		})
	}
}

// streamCutter ends every event stream right after its first spec
// event, as a dropped connection would. With strip set, job statuses
// lose their artifacts, as from a worker that predates them.
type streamCutter struct {
	next  http.RoundTripper
	strip bool
}

func (c *streamCutter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasPrefix(r.URL.Path, api.PathJobs+"/") {
		return resp, err
	}
	if strings.HasSuffix(r.URL.Path, "/events") {
		resp.Body = &cutBody{rd: bufio.NewReader(resp.Body), Closer: resp.Body}
		return resp, nil
	}
	if !c.strip {
		return resp, nil
	}
	var st api.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	for i := range st.Specs {
		st.Specs[i].Artifact = nil
	}
	b, err := json.Marshal(st)
	resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(b)), int64(len(b))
	return resp, err
}

// cutBody reads an event stream up to the end of its first spec
// event's data line and fails after it.
type cutBody struct {
	rd *bufio.Reader
	io.Closer
	line []byte
	cut  bool
}

func (b *cutBody) Read(p []byte) (int, error) {
	if len(b.line) == 0 {
		if b.cut {
			return 0, io.ErrUnexpectedEOF
		}
		line, err := b.rd.ReadBytes('\n')
		if err != nil {
			return 0, err
		}
		b.line, b.cut = line, bytes.HasPrefix(line, []byte(`data: {"type":"spec"`))
	}
	n := copy(p, b.line)
	b.line = b.line[n:]
	return n, nil
}
