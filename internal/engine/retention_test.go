package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hbat/internal/ckpt"
	"hbat/internal/cpu"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

// tinySpec is a distinct, cheap spec per i: the commit cap is part of
// the memo key and ends the run after a handful of instructions.
func tinySpec(i int) RunSpec {
	return RunSpec{
		Workload: "espresso", Design: "T4", Budget: prog.Budget32,
		Scale: workload.ScaleTest, PageSize: 4096, Seed: 1, MaxInsts: uint64(i + 1),
	}
}

// TestMemoKeepsABoundedTailOfFinishedRuns: past memoKept finished
// results the oldest retire first and re-simulate, the newest are still
// hits, and a spec in flight while the ring lapped is never retired —
// its duplicate request still waits for the one simulation.
func TestMemoKeepsABoundedTailOfFinishedRuns(t *testing.T) {
	const k = 5
	e := New()
	ctx := context.Background()

	// Park one simulation in flight at its first heartbeat, with a
	// duplicate request waiting on it.
	started, release := make(chan struct{}), make(chan struct{})
	inflight := tinySpec(memoKept + k)
	inflight.MaxInsts = 0
	inflight.ProgressEvery = 1
	inflight.Progress = func(cycle int64, _ uint64) {
		if cycle == 1 {
			close(started)
			<-release
		}
	}
	results := make(chan RunResult, 2)
	go func() { results <- e.Run(ctx, inflight) }()
	<-started
	dup := inflight
	dup.Progress, dup.ProgressEvery = nil, 0
	go func() { results <- e.Run(ctx, dup) }()

	for i := 0; i < memoKept+k; i++ {
		if r := e.Run(ctx, tinySpec(i)); r.Err != nil || r.Cached {
			t.Fatalf("spec %d: err=%v cached=%v on its first run", i, r.Err, r.Cached)
		}
	}
	e.memo.mu.Lock()
	n := len(e.memo.entries)
	e.memo.mu.Unlock()
	if n != memoKept+1 {
		t.Errorf("memo holds %d entries, want the %d newest finished + 1 in flight", n, memoKept)
	}

	close(release)
	cached := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Cached {
			cached++
		}
	}
	if cached != 1 {
		t.Errorf("%d of the two requests for the in-flight spec were memo hits, want 1", cached)
	}

	for i := memoKept; i < memoKept+k; i++ {
		if r := e.Run(ctx, tinySpec(i)); r.Err != nil || !r.Cached {
			t.Errorf("spec %d, among the newest: err=%v cached=%v, want a hit", i, r.Err, r.Cached)
		}
	}
	for i := 0; i < k; i++ {
		if r := e.Run(ctx, tinySpec(i)); r.Err != nil || r.Cached {
			t.Errorf("spec %d, among the oldest: err=%v cached=%v, want a fresh simulation", i, r.Err, r.Cached)
		}
	}
}

// TestCheckpointCacheKeepsABoundedTail: given ckptKept+k distinct
// fast-forward depths, ckptKept checkpoints stay resident, the oldest
// are rebuilt and the newest are memory hits, and a checkpoint in
// flight while the ring laps is never retired — the run waiting on it
// still gets the one build.
func TestCheckpointCacheKeepsABoundedTail(t *testing.T) {
	const k = 3
	e := New()
	ctx := context.Background()
	at := func(i int, design string) RunSpec {
		s := tinySpec(0)
		s.Design, s.FastForward = design, uint64(100+i)
		return s
	}
	run := func(s RunSpec) {
		t.Helper()
		if r := e.Run(ctx, s); r.Err != nil || r.Cached {
			t.Fatalf("%s at depth %d: err=%v cached=%v", s, s.FastForward, r.Err, r.Cached)
		}
	}

	// Park one checkpoint build in flight, with a run waiting on it.
	parked := at(ckptKept+k, "T4")
	building, release := make(chan struct{}), make(chan struct{})
	go e.ckpts.do(ctx, parked.ckptKey(), func() (*ckpt.Checkpoint, error) {
		close(building)
		<-release
		p, err := e.buildProgram(parked)
		if err != nil {
			return nil, err
		}
		return e.loadOrBuildCheckpoint(ctx, parked.ckptKey(), p, cpu.DefaultConfig(), nil)
	}, nil)
	<-building
	waiter := make(chan RunResult, 1)
	go func() { waiter <- e.Run(ctx, parked) }()

	for i := 0; i < ckptKept+k; i++ {
		run(at(i, "T4"))
	}
	if n := e.ckpts.resident(); n != ckptKept+1 {
		t.Errorf("%d checkpoints resident, want the %d newest finished + 1 in flight", n, ckptKept)
	}
	close(release)
	if r := <-waiter; r.Err != nil || r.Stats.FastForwarded != parked.FastForward {
		t.Fatalf("run waiting on the parked checkpoint: err=%v fast-forwarded %d", r.Err, r.Stats.FastForwarded)
	}
	if cs := e.CacheStats(); cs.CkptMisses != ckptKept+k+1 || cs.CkptHits != 1 {
		t.Fatalf("after the lap: %d misses, %d hits; want %d builds and the waiter's one hit", cs.CkptMisses, cs.CkptHits, ckptKept+k+1)
	}

	// The parked build's finish retired depth k; the newer ones are
	// memory hits (another design, so no memo hit), the oldest rebuilt.
	before := e.CacheStats()
	for i := k + 1; i < ckptKept+k; i++ {
		run(at(i, "M8"))
	}
	if cs := e.CacheStats(); cs.CkptMisses != before.CkptMisses || cs.CkptHits != before.CkptHits+ckptKept-1 {
		t.Errorf("newest: %d misses, %d hits; want %d memory hits and no build", cs.CkptMisses-before.CkptMisses, cs.CkptHits-before.CkptHits, ckptKept-1)
	}
	before = e.CacheStats()
	for i := 0; i < k; i++ {
		run(at(i, "M8"))
	}
	if cs := e.CacheStats(); cs.CkptMisses != before.CkptMisses+k {
		t.Errorf("oldest: %d rebuilt, want %d", cs.CkptMisses-before.CkptMisses, k)
	}
}

// TestForgetDropsOnlyFinishedEntries: Forget makes the next request
// re-simulate, and leaves other specs' entries alone.
func TestForgetDropsOnlyFinishedEntries(t *testing.T) {
	e := New()
	ctx := context.Background()
	a, b := tinySpec(0), tinySpec(1)
	e.Run(ctx, a)
	e.Run(ctx, b)
	e.Forget(a)
	e.Forget(tinySpec(2)) // never ran: a no-op
	if r := e.Run(ctx, a); r.Err != nil || r.Cached {
		t.Errorf("forgotten spec: err=%v cached=%v, want a fresh simulation", r.Err, r.Cached)
	}
	if r := e.Run(ctx, b); r.Err != nil || !r.Cached {
		t.Errorf("other spec: err=%v cached=%v, want a hit", r.Err, r.Cached)
	}
}

// TestRunLogKeepsTheMostRecentRecords: the provenance log is the last
// runLogKept requests in order, and the manifest carries the number
// dropped — omitted while nothing has been.
func TestRunLogKeepsTheMostRecentRecords(t *testing.T) {
	e := New()
	ctx := context.Background()
	spec := tinySpec(0)

	e.Run(ctx, spec)
	m := NewManifest("hbat-test", time.Now())
	m.RecordRuns(e)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "runs_dropped") {
		t.Error("runs_dropped present in a manifest that dropped nothing")
	}

	const extra = 3
	for i := 1; i < runLogKept+extra; i++ {
		e.Run(ctx, spec) // memo hits: one record each
	}
	m.RecordRuns(e)
	buf.Reset()
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.RunsDropped != extra || len(got.Runs) != runLogKept {
		t.Fatalf("manifest has %d runs, %d dropped; want %d and %d", len(got.Runs), got.RunsDropped, runLogKept, extra)
	}
	for i, r := range got.Runs {
		if want := uint64(extra + 1 + i); r.RunID != want {
			t.Fatalf("record %d has run id %d, want %d (oldest kept first)", i, r.RunID, want)
		}
	}
}
