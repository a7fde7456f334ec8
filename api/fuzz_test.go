package api

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
)

// FuzzJobAccepted feeds arbitrary bytes through Submit as a 202 body,
// then calls Result for every spec key the body names. Nothing may
// panic, the slot never holds more than MaxInlineArtifacts bytes, and
// every artifact Result returns hashes to the ETag it reports. Every
// other request is answered 404, so whatever Result returns came from
// the slot. The seed corpus is testdata/fuzz/FuzzJobAccepted, written
// by scripts/genfuzzcorpus.
func FuzzJobAccepted(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		c := NewClient("http://hbatd.test")
		c.HTTP = &http.Client{Transport: acceptedBody(body)}
		ctx := context.Background()
		acc, err := c.Submit(ctx, JobRequest{})
		if err != nil {
			return
		}
		kept := 0
		for _, a := range c.kept.arts {
			kept += len(a.data)
		}
		if kept > MaxInlineArtifacts {
			t.Fatalf("the slot holds %d artifact bytes, over the %d cap", kept, MaxInlineArtifacts)
		}
		for _, key := range acc.SpecKeys {
			data, etag, err := c.Result(ctx, key)
			if err != nil {
				continue
			}
			if got := sha256Hex(data); got != etag {
				t.Fatalf("Result(%q) returned bytes hashing to %s with ETag %s", key, got, etag)
			}
		}
	})
}

// acceptedBody is a transport that answers a POST 202 with its bytes
// and any other request 404.
type acceptedBody []byte

func (b acceptedBody) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	code, body := http.StatusNotFound, []byte(`{"api":"v1","code":404,"message":"not found"}`)
	if r.Method == http.MethodPost {
		code, body = http.StatusAccepted, b
	}
	return &http.Response{
		StatusCode: code, Status: http.StatusText(code), Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)), Request: r,
	}, nil
}
