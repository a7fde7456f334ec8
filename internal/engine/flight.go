package engine

import (
	"context"
	"fmt"
	"sync"
)

// flight is the engine's one cache policy, used for programs,
// checkpoints and results alike. Its rules:
//
//   - The first caller for a key builds the value; concurrent callers
//     for the key wait for that one build, and stop waiting when their
//     own ctx ends.
//   - wait, when non-nil, runs just before a caller blocks on a build
//     that is still running, and the func it returns runs when the
//     block ends. A ready entry is a plain hit: no hook.
//   - A build that ends in a cancellation error is never kept: its
//     entry is dropped and its waiters retry. Any other outcome, errors
//     included, is kept (every build is deterministic).
//   - A build that panics is not kept either, but its waiters wake with
//     an error instead of retrying it, and the panic continues in the
//     caller that ran it.
//   - Past kept finished entries the oldest retire first, and a retired
//     key is simply built again. An entry still in flight never
//     retires.
//   - forget drops a finished entry.
type flight[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*flightEntry[V]
	// finished is a ring of the last len(finished) finished entries;
	// finishing one more retires the occupant of its slot.
	finished []flightRef[K]
	n        uint64
}

// flightEntry is one built (or building) value; done closes when val
// and err are valid.
type flightEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
	// seq is 0 while in flight and the entry's position in finishing
	// order afterwards (guarded by flight.mu).
	seq uint64
}

// flightRef names one finished entry without keeping it alive.
type flightRef[K comparable] struct {
	key K
	seq uint64
}

func newFlight[K comparable, V any](kept int) *flight[K, V] {
	return &flight[K, V]{entries: make(map[K]*flightEntry[V]), finished: make([]flightRef[K], kept)}
}

// do returns key's value and error, running build when no entry holds
// them. hit reports that another call built them; a caller whose ctx
// ends while it waits gets ctx.Err() and hit false.
func (f *flight[K, V]) do(ctx context.Context, key K, build func() (V, error), wait func() func()) (v V, err error, hit bool) {
	for {
		f.mu.Lock()
		ent := f.entries[key]
		if ent == nil {
			ent = &flightEntry[V]{done: make(chan struct{})}
			f.entries[key] = ent
			f.mu.Unlock()
			f.build(key, ent, build)
			return ent.val, ent.err, false
		}
		f.mu.Unlock()
		select {
		case <-ent.done:
		default:
			woke := func() {}
			if wait != nil {
				woke = wait()
			}
			select {
			case <-ctx.Done():
				woke()
				return v, ctx.Err(), false
			case <-ent.done:
				woke()
			}
		}
		if !isCancelErr(ent.err) {
			return ent.val, ent.err, true
		}
		// The build was cancelled, not this caller: retry.
	}
}

// build runs fn as key's build and files its outcome in ent.
func (f *flight[K, V]) build(key K, ent *flightEntry[V], fn func() (V, error)) {
	finished := false
	defer func() {
		if finished {
			return
		}
		// fn panicked (or its goroutine exited): without this, ent.done
		// never closes and every later caller for key waits forever.
		r := recover()
		f.mu.Lock()
		delete(f.entries, key)
		f.mu.Unlock()
		ent.err = fmt.Errorf("engine: build panicked: %v", r)
		close(ent.done)
		if r != nil {
			panic(r)
		}
	}()
	ent.val, ent.err = fn()
	finished = true
	f.mu.Lock()
	if isCancelErr(ent.err) {
		delete(f.entries, key)
	} else {
		f.n++
		ent.seq = f.n
		slot := &f.finished[f.n%uint64(len(f.finished))]
		if old := f.entries[slot.key]; old != nil && slot.seq != 0 && old.seq == slot.seq {
			delete(f.entries, slot.key)
		}
		*slot = flightRef[K]{key: key, seq: ent.seq}
	}
	f.mu.Unlock()
	close(ent.done)
}

// forget drops key's finished entry; one in flight is left alone.
func (f *flight[K, V]) forget(key K) {
	f.mu.Lock()
	if ent := f.entries[key]; ent != nil && ent.seq != 0 {
		delete(f.entries, key)
	}
	f.mu.Unlock()
}
