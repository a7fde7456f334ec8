package store

// The fleet coordinator's store tier is a read-through cache over the
// workers: an artifact the coordinator has not filed locally yet can
// still be served by fetching it from whichever worker computed it —
// exactly once, verified against the expected content hash before it
// is admitted. The Filler here is that read-through layer; the
// coordinator records each spec's expected SHA-256 at completion time
// and the Filler refuses any fetched bytes that do not hash to it, so
// a worker (or the network) corrupting a result can never poison the
// coordinator's content-addressed store.

import (
	"context"
	"fmt"
	"sync"
)

// Fetch retrieves the artifact bytes for key from a remote source. It
// is called at most once per key per miss wave (concurrent misses on
// one key collapse into a single flight).
type Fetch func(ctx context.Context, key string) ([]byte, error)

// Filler is a read-through layer over a Store: Get serves local hits
// directly and fills misses through a Fetch, verifying fetched bytes
// against the expected content hash before filing them. Safe for
// concurrent use.
type Filler struct {
	// Store is the backing store; required.
	Store *Store
	// Fetch retrieves missing artifacts; required for fills. With a nil
	// Fetch the Filler degrades to plain Store reads.
	Fetch Fetch
	// Tenant attributes filled artifacts in the backing store;
	// "default" when empty.
	Tenant string

	mu       sync.Mutex
	expected map[string]string // key -> required SHA-256 hex
	inflight map[string]*flight
}

// flight is one in-progress fill; later arrivals wait on done.
type flight struct {
	done chan struct{}
	data []byte
	sha  string
	err  error
}

// Expect records the content hash an artifact must carry to be
// admitted by a future fill. A key with no expectation is fetched but
// only self-verified (the store still rejects malformed keys and
// hashes everything it admits).
func (f *Filler) Expect(key, sha string) {
	f.mu.Lock()
	if f.expected == nil {
		f.expected = make(map[string]string)
	}
	f.expected[key] = sha
	f.mu.Unlock()
}

// Get returns the artifact under key, fetching and filing it on a
// local miss. Concurrent misses on the same key share one fetch.
func (f *Filler) Get(ctx context.Context, key string) (data []byte, sha string, err error) {
	if data, sha, ok := f.Store.Get(key); ok {
		return data, sha, nil
	}
	if f.Fetch == nil {
		return nil, "", fmt.Errorf("store: no artifact for %s and no fetcher", key)
	}

	f.mu.Lock()
	if fl, ok := f.inflight[key]; ok {
		f.mu.Unlock()
		select {
		case <-fl.done:
			return fl.data, fl.sha, fl.err
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
	if f.inflight == nil {
		f.inflight = make(map[string]*flight)
	}
	fl := &flight{done: make(chan struct{})}
	f.inflight[key] = fl
	want := f.expected[key]
	f.mu.Unlock()

	fl.data, fl.sha, fl.err = f.fill(ctx, key, want)
	f.mu.Lock()
	delete(f.inflight, key)
	f.mu.Unlock()
	close(fl.done)
	return fl.data, fl.sha, fl.err
}

// fill performs one verified fetch-and-file. It looks in the store
// again first: a caller can miss, then take its turn as flight leader
// only after an earlier flight filed the key and left.
func (f *Filler) fill(ctx context.Context, key, want string) ([]byte, string, error) {
	if data, sha, ok := f.Store.Get(key); ok {
		return data, sha, nil
	}
	data, err := f.Fetch(ctx, key)
	if err != nil {
		return nil, "", fmt.Errorf("store: fill %s: %w", key, err)
	}
	got := hash(data)
	if want != "" && got != want {
		return nil, "", fmt.Errorf("store: fill %s: fetched bytes hash %s, want %s (corrupt remote)", key, got[:12], want[:12])
	}
	tenant := f.Tenant
	if tenant == "" {
		tenant = "default"
	}
	sha, err := f.Store.Put(tenant, key, data)
	if err != nil {
		// ErrMismatch here means someone filed different bytes while we
		// fetched; serve what the store holds — it won the race.
		if d, s, ok := f.Store.Get(key); ok {
			return d, s, nil
		}
		return nil, "", fmt.Errorf("store: fill %s: %w", key, err)
	}
	return data, sha, nil
}
