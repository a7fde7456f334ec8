package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// resident counts the entries a flight holds, finished and in flight.
func (f *flight[K, V]) resident() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// TestFlightDeduplicatesConcurrentCallers: callers that arrive while a
// build is running wait for it (each through the wait hook, whose
// returned func runs when the wait ends) and share its value.
func TestFlightDeduplicatesConcurrentCallers(t *testing.T) {
	const n = 16
	f := newFlight[string, int](4)
	var builds, waiting, woken atomic.Int32
	release := make(chan struct{})
	build := func() (int, error) {
		builds.Add(1)
		<-release
		return 42, nil
	}
	wait := func() func() {
		if waiting.Add(1) == n-1 {
			close(release) // every other caller is parked: finish
		}
		return func() { woken.Add(1) }
	}
	var wg sync.WaitGroup
	var hits atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, hit := f.do(context.Background(), "k", build, wait)
			if v != 42 || err != nil {
				t.Errorf("do = %d, %v; want 42, nil", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 || hits.Load() != n-1 || woken.Load() != n-1 {
		t.Errorf("%d builds, %d hits, %d waits ended; want 1, %d, %d", builds.Load(), hits.Load(), woken.Load(), n-1, n-1)
	}
	// A ready entry is a plain hit: no hook.
	if _, _, hit := f.do(context.Background(), "k", build, func() func() {
		t.Error("wait hook ran for a finished entry")
		return func() {}
	}); !hit {
		t.Error("finished entry not a hit")
	}
}

// TestFlightKeepsErrorsButNotCancellations: a cancelled build leaves no
// entry and its waiter builds again; any other error is kept.
func TestFlightKeepsErrorsButNotCancellations(t *testing.T) {
	f := newFlight[string, int](4)
	ctx := context.Background()
	started, cancelIt := make(chan struct{}), make(chan struct{})
	parked := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err, _ := f.do(ctx, "k", func() (int, error) {
			close(started)
			<-cancelIt
			return 0, context.Canceled
		}, nil)
		leader <- err
	}()
	<-started
	follower := make(chan int, 1)
	go func() {
		v, err, hit := f.do(ctx, "k", func() (int, error) { return 7, nil }, func() func() {
			close(parked)
			return func() {}
		})
		if err != nil || hit {
			t.Errorf("retrying waiter: err=%v hit=%v, want its own build", err, hit)
		}
		follower <- v
	}()
	<-parked
	close(cancelIt)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v", err)
	}
	if v := <-follower; v != 7 {
		t.Fatalf("waiter got %d, want its own build's 7", v)
	}

	bad := errors.New("deterministic failure")
	builds := 0
	failing := func() (int, error) { builds++; return 0, bad }
	for i := 0; i < 2; i++ {
		if _, err, _ := f.do(ctx, "bad", failing, nil); err != bad {
			t.Fatalf("call %d: err = %v, want %v", i, err, bad)
		}
	}
	if builds != 1 {
		t.Errorf("failing key built %d times, want 1 (errors are kept)", builds)
	}
}

// TestFlightWaiterStopsWithItsContext: a waiter whose ctx ends gets
// ctx.Err() and no hit, and the build it waited on is kept.
func TestFlightWaiterStopsWithItsContext(t *testing.T) {
	f := newFlight[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		}, nil)
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	_, err, hit := f.do(ctx, "k", nil, func() func() { cancel(); return func() {} })
	if !errors.Is(err, context.Canceled) || hit {
		t.Fatalf("cancelled waiter: err=%v hit=%v", err, hit)
	}
	close(release)
	<-done
	if v, _, hit := f.do(context.Background(), "k", func() (int, error) { return 2, nil }, nil); v != 1 || !hit {
		t.Errorf("after the waiter left: %d hit=%v, want the kept 1", v, hit)
	}
}

// TestFlightRetiresTheOldestFinished: past kept finished entries the
// oldest retire first and are rebuilt, the newest stay, an entry in
// flight while the ring laps is never retired, and forget drops only
// finished entries.
func TestFlightRetiresTheOldestFinished(t *testing.T) {
	const kept, k = 4, 2
	f := newFlight[int, int](kept)
	ctx := context.Background()
	builds := map[int]int{}
	build := func(i int) func() (int, error) {
		return func() (int, error) { builds[i]++; return i, nil }
	}

	// Key -1 finishes and is forgotten, so a ring slot still names it,
	// then builds again and stays in flight while the ring laps.
	f.do(ctx, -1, build(-1), nil)
	f.forget(-1)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.do(ctx, -1, func() (int, error) { close(started); <-release; return -1, nil }, nil)
	}()
	<-started
	f.forget(-1) // in flight: left alone

	for i := 0; i < kept+k; i++ {
		f.do(ctx, i, build(i), nil)
	}
	if n := f.resident(); n != kept+1 {
		t.Errorf("%d resident, want the %d newest finished + 1 in flight", n, kept)
	}
	close(release)
	<-done
	if _, _, hit := f.do(ctx, -1, build(-1), nil); !hit {
		t.Error("the entry in flight while the ring lapped was retired")
	}
	// The parked entry's finish retired key k; the newer ones are hits.
	for i := k + 1; i < kept+k; i++ {
		if _, _, hit := f.do(ctx, i, build(i), nil); !hit {
			t.Errorf("key %d, among the newest, was rebuilt", i)
		}
	}
	for i := 0; i < k; i++ {
		if _, _, hit := f.do(ctx, i, build(i), nil); hit || builds[i] != 2 {
			t.Errorf("key %d, among the oldest: hit=%v after %d builds, want a rebuild", i, hit, builds[i])
		}
	}
	f.forget(kept + k - 1)
	if _, _, hit := f.do(ctx, kept+k-1, build(kept+k-1), nil); hit {
		t.Error("a forgotten entry was served")
	}
}

// TestFlightPanickingBuildDoesNotWedgeKey: a build that panics leaves no
// entry behind. The panic reaches the caller that ran the build, a
// waiter parked on it wakes with an error, and the next caller builds.
func TestFlightPanickingBuildDoesNotWedgeKey(t *testing.T) {
	f := newFlight[string, int](4)
	started, release, parked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		f.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		}, nil)
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err, _ := f.do(context.Background(), "k", func() (int, error) { return 0, nil }, func() func() {
			close(parked)
			return func() {}
		})
		waiter <- err
	}()
	<-parked
	close(release)
	if r := <-leader; r != "boom" {
		t.Fatalf("the building caller recovered %v, want the build's panic", r)
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Error("waiter on a panicked build got no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still parked on the panicked build")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if v, err, hit := f.do(ctx, "k", func() (int, error) { return 7, nil }, nil); v != 7 || err != nil || hit {
		t.Errorf("next caller: %d, %v, hit=%v; want its own build's 7", v, err, hit)
	}
	if n := f.resident(); n != 1 {
		t.Errorf("%d resident, want 1", n)
	}
}
