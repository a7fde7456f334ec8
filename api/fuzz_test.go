package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// FuzzJobAccepted feeds arbitrary bytes through Submit as a 202 body
// and through Wait as a job status, and calls Result for every spec key
// either names. Nothing may panic, the slot never holds more than
// MaxInlineArtifacts bytes, and every artifact Result returns hashes to
// the ETag it reports. Only a status body that decodes to a terminal
// state is served (so Wait ends), every other request is answered 404,
// and so whatever Result returns came from the slot. The seed corpus is
// testdata/fuzz/FuzzJobAccepted, written by scripts/genfuzzcorpus.
func FuzzJobAccepted(f *testing.F) {
	f.Fuzz(func(t *testing.T, accepted, status []byte) {
		c := NewClient("http://hbatd.test")
		c.HTTP = &http.Client{Transport: fuzzServer{accepted, status}}
		ctx := context.Background()
		results := func(keys ...string) {
			t.Helper()
			kept := 0
			for _, data := range c.kept.arts {
				kept += len(data)
			}
			if kept > MaxInlineArtifacts {
				t.Fatalf("the slot holds %d artifact bytes, over the %d cap", kept, MaxInlineArtifacts)
			}
			for _, key := range keys {
				data, etag, err := c.Result(ctx, key)
				if err != nil {
					continue
				}
				if got := sha256Hex(data); got != etag {
					t.Fatalf("Result(%q) returned bytes hashing to %s with ETag %s", key, got, etag)
				}
			}
		}
		acc, err := c.Submit(ctx, JobRequest{})
		if err != nil {
			return
		}
		// The first Wait may answer from the 202; the second asks the
		// server.
		for range 2 {
			st, err := c.Wait(ctx, acc.ID)
			if err != nil {
				return
			}
			keys := append([]string(nil), acc.SpecKeys...)
			for _, sp := range st.Specs {
				keys = append(keys, sp.SpecKey)
			}
			results(keys...)
		}
	})
}

// fuzzServer is a transport that answers a POST 202 with accepted, a
// job status request with status when that decodes to a terminal
// state, and any other request 404.
type fuzzServer struct{ accepted, status []byte }

func (s fuzzServer) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	code, body := http.StatusNotFound, []byte(`{"api":"v1","code":404,"message":"not found"}`)
	switch {
	case r.Method == http.MethodPost:
		code, body = http.StatusAccepted, s.accepted
	case strings.HasPrefix(r.URL.Path, PathJobs+"/"):
		var st JobStatus
		if json.Unmarshal(s.status, &st) == nil && terminal(st.State) {
			code, body = http.StatusOK, s.status
		}
	}
	return &http.Response{
		StatusCode: code, Status: http.StatusText(code), Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)), Request: r,
	}, nil
}
