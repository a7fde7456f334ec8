package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func fillKey(b byte) string {
	return strings.Repeat(hex.EncodeToString([]byte{b}), 8) // 16-hex key
}

func shaOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestFillerFetchOnce: concurrent misses on one key collapse into a
// single fetch, and the bytes land in the backing store.
func TestFillerFetchOnce(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	key, body := fillKey(0xaa), []byte(`{"fill":"once"}`)
	var fetches atomic.Int64
	f := &Filler{Store: s, Fetch: func(ctx context.Context, k string) ([]byte, error) {
		fetches.Add(1)
		if k != key {
			t.Errorf("fetched %s, want %s", k, key)
		}
		return body, nil
	}}
	f.Expect(key, shaOf(body))

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, sha, err := f.Get(context.Background(), key)
			if err != nil {
				t.Error(err)
				return
			}
			if string(data) != string(body) || sha != shaOf(body) {
				t.Errorf("got %q/%s", data, sha)
			}
		}()
	}
	wg.Wait()
	// All 8 callers raced one miss wave: late arrivals wait on the
	// flight, and one that missed before the flight and leads after it
	// finds the key filed. A key the store holds is never fetched again.
	if n := fetches.Load(); n != 1 {
		t.Fatalf("fetches = %d, want 1", n)
	}
	before := fetches.Load()
	if _, _, err := f.Get(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if fetches.Load() != before {
		t.Fatal("fetch-once violated: stored key was fetched again")
	}
	if _, _, ok := s.Get(key); !ok {
		t.Fatal("fill did not file the artifact into the backing store")
	}
}

// TestFillerRejectsCorrupt: fetched bytes that do not hash to the
// expectation are refused and nothing is filed.
func TestFillerRejectsCorrupt(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	key, body := fillKey(0xbb), []byte(`{"fill":"good"}`)
	f := &Filler{Store: s, Fetch: func(ctx context.Context, k string) ([]byte, error) {
		return []byte(`{"fill":"tampered"}`), nil
	}}
	f.Expect(key, shaOf(body))
	if _, _, err := f.Get(context.Background(), key); err == nil {
		t.Fatal("corrupt fill admitted")
	} else if !strings.Contains(err.Error(), "corrupt remote") {
		t.Fatalf("err = %v, want corrupt-remote", err)
	}
	if _, _, ok := s.Get(key); ok {
		t.Fatal("corrupt bytes were filed into the store")
	}
}

// TestFillerFetchError propagates and does not cache the failure: a
// later Get retries the fetch.
func TestFillerFetchError(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	key, body := fillKey(0xcc), []byte(`{"fill":"late"}`)
	var calls atomic.Int64
	f := &Filler{Store: s, Fetch: func(ctx context.Context, k string) ([]byte, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("worker gone")
		}
		return body, nil
	}}
	if _, _, err := f.Get(context.Background(), key); err == nil {
		t.Fatal("first fill should fail")
	}
	data, _, err := f.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("retry fill: %v", err)
	}
	if string(data) != string(body) {
		t.Fatalf("retry served %q", data)
	}
}

// TestFillerNoFetcher degrades to plain store reads.
func TestFillerNoFetcher(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	key, body := fillKey(0xdd), []byte(`{"fill":"local"}`)
	if _, err := s.Put("default", key, body); err != nil {
		t.Fatal(err)
	}
	f := &Filler{Store: s}
	if data, _, err := f.Get(context.Background(), key); err != nil || string(data) != string(body) {
		t.Fatalf("local hit: %q, %v", data, err)
	}
	if _, _, err := f.Get(context.Background(), fillKey(0xde)); err == nil {
		t.Fatal("miss with no fetcher must error")
	}
}
