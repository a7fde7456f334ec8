package api

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// maxEventLine caps one SSE line Events will read; dataPrefix marks the
// lines it decodes.
const maxEventLine = 1 << 20

// maxErrorBody caps the bytes of a non-2xx body the client reads: an
// api.Error is a few hundred, and whatever follows the cap is dropped
// with the connection. maxSizedBody is the largest declared length a
// 2xx body is read into one buffer of that size; a longer or undeclared
// one grows as it is read.
const (
	maxErrorBody = 1 << 16
	maxSizedBody = 8 << 20
)

var dataPrefix = []byte("data: ")

// Client is a minimal v1 client for an hbatd sweep service, in either
// role (a worker and a coordinator speak the same API). The zero value
// is not usable; construct with NewClient. All methods honour the passed
// context and return *Error for structured server errors.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:9090" (no
	// trailing slash).
	Base string
	// HTTP is the underlying client; http.DefaultClient when nil.
	HTTP *http.Client
	// Tenant, when non-empty, is sent as the X-Hbat-Tenant header on
	// every request.
	Tenant string
	// Timeout, when positive, bounds each individual HTTP request
	// (tightening, never loosening, the caller's context deadline).
	// Wait applies it per status request (and asks the server to hold
	// each for at most half of it), so a hung server fails one request
	// at a time instead of stalling Wait forever. Events is exempt: an
	// event stream legitimately outlives any single-request budget, so
	// its lifetime is bounded only by the caller's context.
	Timeout time.Duration

	// kept is the last terminal status the client read: one job's
	// slot, replaced by every Submit and by every Wait that reads one
	// with artifacts, so it holds at most MaxInlineArtifacts of bytes.
	mu   sync.Mutex
	kept keptJob
}

// keptJob is the last terminal status the client read, from a 202 or
// from Wait. Wait takes the status once when Submit read it (wait), and
// Result takes each of its checked artifacts once: arts[i] is
// status.Specs[i].Artifact until a Result for that spec's key.
type keptJob struct {
	status *JobStatus
	wait   bool
	arts   [][]byte
}

// NewClient returns a Client for the service rooted at base.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// reqCtx derives the per-request context: ctx plus the client's
// Timeout, when one is set.
func (c *Client) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		return context.WithTimeout(ctx, c.Timeout)
	}
	return ctx, func() {}
}

// send makes one request under the client's Timeout and returns the
// response's header and body. A non-2xx answer comes back as *Error.
func (c *Client) send(ctx context.Context, method, path string, body any) (http.Header, []byte, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
		if jr, ok := body.(JobRequest); ok && jr.Traceparent != "" {
			req.Header.Set(TraceparentHeader, jr.Traceparent)
		}
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return nil, nil, errorFrom(resp, data)
	}
	data, err := readBody(resp)
	if err != nil {
		return nil, nil, err
	}
	return resp.Header, data, nil
}

// readBody reads a 2xx body whole: into one buffer of its declared
// length, up to maxSizedBody, or by io.ReadAll's growth otherwise.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n <= maxSizedBody {
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(resp.Body)
}

// errorFrom is the one decoding of a non-2xx answer: the server's
// api.Error body when there is one, a synthesized one naming the
// request otherwise — and in either case Code is the HTTP status when
// the body left it out, so callers can switch on it (404: the job id is
// gone) whichever method they called.
func errorFrom(resp *http.Response, data []byte) *Error {
	var e Error
	if json.Unmarshal(data, &e) != nil || e.Message == "" {
		e = Error{API: Version, Message: fmt.Sprintf("%s %s: %s",
			resp.Request.Method, resp.Request.URL.Path, resp.Status)}
	}
	if e.Code == 0 {
		e.Code = resp.StatusCode
	}
	return &e
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	_, data, err := c.send(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// Ping probes the service, verifies it speaks this wire version, and
// returns the tool name it answers with (the coordinator's handshake).
func (c *Client) Ping(ctx context.Context) (tool string, err error) {
	var pong struct {
		API  string `json:"api"`
		Pong string `json:"pong"`
	}
	if err := c.do(ctx, http.MethodGet, PathPing, nil, &pong); err != nil {
		return "", err
	}
	if pong.API != Version {
		return "", fmt.Errorf("api: server speaks %q, client speaks %q", pong.API, Version)
	}
	return pong.Pong, nil
}

// Submit posts a job and returns its acceptance record. A
// req.Traceparent is additionally sent as the traceparent header, so
// intermediaries that only read headers see the same trace context the
// body carries. When the 202 carries the job's terminal status (the
// server's store answered every spec), Submit keeps it for the Wait
// that follows, and its artifacts for the Results that follow (see
// keep). Every successful Submit replaces what the client kept, with
// nothing when its 202 carries no terminal status.
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobAccepted, error) {
	var acc JobAccepted
	if err := c.do(ctx, http.MethodPost, PathJobs, req, &acc); err != nil {
		return acc, err
	}
	var k keptJob
	if st := acc.Status; st != nil && terminal(st.State) {
		k = keep(st, true)
	}
	c.mu.Lock()
	c.kept = k
	c.mu.Unlock()
	return acc, nil
}

// keep is the slot a terminal status leaves. Each spec's Artifact that
// does not hash to its SHA256 is dropped from st, and all of them are
// when they total more than MaxInlineArtifacts; the rest are kept. The
// kept bytes are st's own, so treat those as read-only.
func keep(st *JobStatus, wait bool) keptJob {
	k := keptJob{status: st, wait: wait}
	total := 0
	for i := range st.Specs {
		if sp := &st.Specs[i]; sp.Artifact != nil {
			if sum := sha256.Sum256(sp.Artifact); hex.EncodeToString(sum[:]) != sp.SHA256 {
				sp.Artifact = nil
			}
			total += len(sp.Artifact)
		}
	}
	if total == 0 || total > MaxInlineArtifacts {
		for i := range st.Specs {
			st.Specs[i].Artifact = nil
		}
		return k
	}
	k.arts = make([][]byte, len(st.Specs))
	for i := range st.Specs {
		k.arts[i] = st.Specs[i].Artifact
	}
	return k
}

// takeFinished returns the status Submit kept when it is job id's, once.
func (c *Client) takeFinished(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.kept.status; st != nil && c.kept.wait && st.ID == id {
		c.kept.wait = false
		return *st, true
	}
	return JobStatus{}, false
}

// takeArtifact returns, and forgets, an artifact the slot keeps for
// key, with its checked hash.
func (c *Client) takeArtifact(key string) ([]byte, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, data := range c.kept.arts {
		if sp := &c.kept.status.Specs[i]; data != nil && sp.SpecKey == key {
			c.kept.arts[i] = nil
			return data, sp.SHA256, true
		}
	}
	return nil, "", false
}

func terminal(state string) bool { return state == StateDone || state == StateFailed }

// Spans fetches a job's server-side span journal: the raw JSON-lines
// document GET /v1/jobs/{id}/spans serves (versioned header line, then
// one finished span per line — the same format a local -spans journal
// file uses).
func (c *Client) Spans(ctx context.Context, id string) ([]byte, error) {
	_, data, err := c.send(ctx, http.MethodGet, PathJobs+"/"+id+"/spans", nil)
	return data, err
}

// Job fetches the current status of a job.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, PathJobs+"/"+id, nil, &st)
	return st, err
}

// Wait's two periods. waitHold is the longest one status request asks
// the server to park (half the client's Timeout when that is smaller,
// so a parked request is answered before its own deadline). waitFloor
// is the least time between two status requests: a server that honours
// the hold makes it moot, one that ignores the parameter is polled at
// this period instead of in a hot loop.
const (
	waitHold  = 10 * time.Second
	waitFloor = 50 * time.Millisecond
)

// Wait blocks until a job leaves the queued/running states (or the
// context ends) and returns its final status. When that status carries
// artifacts, Wait keeps it for the Results that follow, replacing what
// the client kept, as Submit does. It answers a job its own Submit
// saw finish without a request: the status that job's 202 carried,
// once (the client keeps only the last such status, so a second Wait
// for it, or a Wait after another Submit replaced it, asks the
// server). Otherwise each status request asks the server to hold it
// until the job finishes (see WaitParam), so a finished job is reported
// the moment it finishes and a job costs one request per hold, not one
// per tick. A job id the server no longer knows — the daemon restarted,
// or the job finished long enough ago to leave the server's tail — is
// the server's *Error with Code 404, returned as is: Wait never
// resubmits.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	if st, ok := c.takeFinished(id); ok {
		return st, nil
	}
	hold := waitHold
	if c.Timeout > 0 && c.Timeout/2 < hold {
		hold = c.Timeout / 2
	}
	path := PathJobs + "/" + id + "?" + WaitParam + "=" + hold.String()
	var floor *time.Ticker
	for {
		var st JobStatus
		if err := c.do(ctx, http.MethodGet, path, nil, &st); err != nil {
			return st, err
		}
		if terminal(st.State) {
			kept := st
			if k := keep(&kept, false); k.arts != nil {
				c.mu.Lock()
				c.kept = k
				c.mu.Unlock()
			}
			return kept, nil
		}
		if floor == nil {
			floor = time.NewTicker(waitFloor)
			defer floor.Stop()
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-floor.C:
		}
	}
}

// Result fetches a rendered artifact by spec key, returning the exact
// served bytes and their content-hash ETag (unquoted). It answers a key
// whose artifact the last terminal status the client read carried
// without a request, once: the kept bytes, with the SHA-256 hex they
// were checked against as the ETag, which is the ETag the server would
// send (the client keeps only the last job's artifacts, so a second
// Result for the key, or one after another Submit or Wait, asks the
// server).
func (c *Client) Result(ctx context.Context, specKey string) ([]byte, string, error) {
	if data, sha, ok := c.takeArtifact(specKey); ok {
		return data, sha, nil
	}
	hdr, data, err := c.send(ctx, http.MethodGet, PathResults+specKey, nil)
	if err != nil {
		return nil, "", err
	}
	etag := hdr.Get("ETag")
	if n := len(etag); n >= 2 && etag[0] == '"' && etag[n-1] == '"' {
		etag = etag[1 : n-1]
	}
	return data, etag, nil
}

// Events opens the SSE stream of a job and calls fn for every decoded
// event until fn returns false, the stream ends, or ctx is done. The
// stream opens with a "spec" event for each spec that finished before
// it, then carries each later one, every spec once, with its artifact
// when the server inlines it. The terminal "done" event (when one
// arrives) is delivered to fn like any other; Events returns nil right
// after it. The stream is lossy by design — a consumer that lags loses
// spec events, so one that needs every spec's final state and did not
// see them all should reconcile with Job after Events returns. The
// client's Timeout does NOT apply here; bound the stream's lifetime
// through ctx.
//
// A stream costs what it carries: the line buffer starts at
// bufio.Scanner's 4 KiB and doubles only for a longer line, up to
// maxEventLine (a longer one ends the stream with bufio.ErrTooLong),
// and each event decodes straight out of that buffer. Every
// coordinator dispatch opens one of these to read one ~1 KiB line per
// spec (its status and artifact) and a ~100-byte done.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+PathJobs+"/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return errorFrom(resp, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxEventLine)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), dataPrefix)
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil {
			continue // tolerate foreign frames on the stream
		}
		if !fn(ev) {
			return nil
		}
		if ev.Type == "done" {
			return nil
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return sc.Err()
}

// Ready probes the service's readiness endpoint (served next to the
// job API in either hbatd role). It returns (true, nil) for a ready
// service, (false, nil) for one that answered 503 (draining), and a
// non-nil error when the probe itself failed.
func (c *Client) Ready(ctx context.Context) (bool, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/ready", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		return true, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		return false, nil
	}
	return false, &Error{API: Version, Code: resp.StatusCode, Message: resp.Status}
}

// Workers fetches a coordinator's fleet registry. Single-node hbatd
// services answer 404 here.
func (c *Client) Workers(ctx context.Context) (FleetStatus, error) {
	var fs FleetStatus
	err := c.do(ctx, http.MethodGet, PathWorkers, nil, &fs)
	return fs, err
}

// RegisterWorker adds a worker address to a running coordinator's
// fleet.
func (c *Client) RegisterWorker(ctx context.Context, addr string) error {
	return c.do(ctx, http.MethodPost, PathWorkers, WorkerRegistration{Addr: addr}, nil)
}
