package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"hbat/internal/prog"
	"hbat/internal/workload"
)

// sweepTestSpecs is a small mixed grid for scheduling tests.
func sweepTestSpecs() []RunSpec {
	var specs []RunSpec
	for _, w := range []string{"espresso", "perl"} {
		for _, d := range []string{"T4", "T1", "M8"} {
			specs = append(specs, RunSpec{
				Workload: w, Design: d, Budget: prog.Budget32,
				Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
			})
		}
	}
	return specs
}

// TestRunAllDeterministicAcrossParallelism asserts the sweep scheduler
// is an optimization, not a semantics change: the same grid produces
// identical results serially and at any parallelism level.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	specs := sweepTestSpecs()

	// Reference: each spec on its own private engine, serially.
	ref := make([]RunResult, len(specs))
	for i, s := range specs {
		ref[i] = New().Run(context.Background(), s)
		if ref[i].Err != nil {
			t.Fatal(ref[i].Err)
		}
	}

	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		// A fresh engine per level: a shared one would serve repeats from
		// cache and make the comparison vacuous.
		results, err := New().RunAll(context.Background(), specs, par, nil)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("par=%d run %d: %v", par, i, r.Err)
			}
			if !reflect.DeepEqual(r.Stats, ref[i].Stats) {
				t.Errorf("par=%d: %s CPU stats diverge from serial run", par, specs[i])
			}
			if !reflect.DeepEqual(r.TLB, ref[i].TLB) {
				t.Errorf("par=%d: %s TLB stats diverge from serial run", par, specs[i])
			}
			if r.Observed != ref[i].Observed {
				t.Errorf("par=%d: %s metrics diverge from serial run", par, specs[i])
			}
		}
	}
}

// TestRunMemoServesRepeats pins the memo contract: an identical spec is
// served from cache (flagged Cached, same results), and a different
// seed is not.
func TestRunMemoServesRepeats(t *testing.T) {
	eng := New()
	spec := sweepTestSpecs()[0]
	ctx := context.Background()

	first := eng.Run(ctx, spec)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Cached {
		t.Error("first run flagged as cached")
	}
	second := eng.Run(ctx, spec)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.Cached {
		t.Error("repeat run not served from memo")
	}
	if !reflect.DeepEqual(first.Stats, second.Stats) {
		t.Error("cached result differs from original")
	}
	other := spec
	other.Seed = 2
	third := eng.Run(ctx, other)
	if third.Err != nil {
		t.Fatal(third.Err)
	}
	if third.Cached {
		t.Error("different seed served from memo")
	}
	if cs := eng.CacheStats(); cs.SpecHits != 1 || cs.SpecMisses != 2 {
		t.Errorf("counters = %+v, want 1 hit / 2 misses", cs)
	}
}

// imageSum adds up the bytes of p's data segments.
func imageSum(p *prog.Program) uint64 {
	var sum uint64
	for _, seg := range p.Data {
		buf := make([]byte, seg.Size)
		p.Image.Read(seg.Addr, buf)
		for _, b := range buf {
			sum += uint64(b)
		}
	}
	return sum
}

// TestBuildCacheSharesImmutablePrograms asserts the contract the build
// cache rests on: two designs simulated from one cached program leave
// the program bit-identical, do the same architected work, and still
// diverge in their timing statistics.
func TestBuildCacheSharesImmutablePrograms(t *testing.T) {
	eng := New()
	spec := RunSpec{
		Workload: "compress", Design: "T4", Budget: prog.Budget32,
		Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
	}
	p, err := eng.buildProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Fingerprint the shared program before any machine touches it.
	codeLen := len(p.Code)
	dataSum := imageSum(p)
	initRegs := make(map[string]uint64)
	for r, v := range p.InitRegs {
		initRegs[r.String()] = v
	}

	t4 := eng.Run(context.Background(), spec)
	t1spec := spec
	t1spec.Design = "T1"
	t1 := eng.Run(context.Background(), t1spec)
	if t4.Err != nil || t1.Err != nil {
		t.Fatal(t4.Err, t1.Err)
	}

	p2, err := eng.buildProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Error("build cache returned a different program for the same key")
	}
	if len(p.Code) != codeLen {
		t.Errorf("code length changed: %d -> %d", codeLen, len(p.Code))
	}
	if imageSum(p) != dataSum {
		t.Error("data segments mutated by simulation")
	}
	for r, v := range p.InitRegs {
		if initRegs[r.String()] != v {
			t.Errorf("initial register %s changed", r)
		}
	}
	// Same architected work, different timing.
	if t4.Stats.Committed != t1.Stats.Committed {
		t.Errorf("architected work diverged: T4 committed %d, T1 %d",
			t4.Stats.Committed, t1.Stats.Committed)
	}
	if t4.Stats.Cycles == t1.Stats.Cycles {
		t.Error("T4 and T1 took identical cycles; designs not actually differing")
	}
}

// TestProgramCacheReusesPrograms: one build per (workload, budget,
// scale); the budget is part of the key.
func TestProgramCacheReusesPrograms(t *testing.T) {
	eng := New()
	spec := RunSpec{Workload: "compress", Budget: prog.Budget32, Scale: workload.ScaleTest}
	p1, err := eng.buildProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.buildProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same key built twice")
	}
	if cs := eng.CacheStats(); cs.BuildHits != 1 || cs.BuildMisses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", cs.BuildHits, cs.BuildMisses)
	}
	spec.Budget = prog.Budget8
	p3, err := eng.buildProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("different budget shared a program")
	}
	if cs := eng.CacheStats(); cs.BuildHits != 1 || cs.BuildMisses != 2 {
		t.Errorf("stats = %d/%d after second key, want 1/2", cs.BuildHits, cs.BuildMisses)
	}
}

// TestProgramCacheUnknownNameBypassesCache: an unknown workload fails
// before it reaches the cache, in a lookup and in a run.
func TestProgramCacheUnknownNameBypassesCache(t *testing.T) {
	eng := New()
	spec := RunSpec{Workload: "nope", Design: "T4", Budget: prog.Budget32, Scale: workload.ScaleTest, PageSize: 4096}
	if _, err := eng.buildProgram(spec); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if r := eng.Run(context.Background(), spec); r.Err == nil {
		t.Fatal("unknown workload ran")
	}
	if cs := eng.CacheStats(); cs.BuildHits != 0 || cs.BuildMisses != 0 || eng.progs.resident() != 0 {
		t.Errorf("unknown name touched the cache: %+v, %d resident", cs, eng.progs.resident())
	}
}

// TestProgramCacheDeduplicatesConcurrentBuilds hammers one key from
// many goroutines: exactly one build runs and everyone gets the same
// shared program (run with -race to check the synchronization).
func TestProgramCacheDeduplicatesConcurrentBuilds(t *testing.T) {
	eng := New()
	spec := RunSpec{Workload: "espresso", Budget: prog.Budget32, Scale: workload.ScaleTest}
	const n = 16
	progs := make([]*prog.Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := eng.buildProgram(spec)
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a different program", i)
		}
	}
	if cs := eng.CacheStats(); cs.BuildMisses != 1 || cs.BuildHits != n-1 {
		t.Errorf("stats = %d hits / %d misses, want %d/1", cs.BuildHits, cs.BuildMisses, n-1)
	}
}

// TestRunCancellationInterruptsInFlight cancels a context while a
// simulation is running and asserts the machine stops at the next
// cycle-granular check with the bare context error.
func TestRunCancellationInterruptsInFlight(t *testing.T) {
	eng := New()
	spec := RunSpec{
		Workload: "compress", Design: "T4", Budget: prog.Budget32,
		Scale: workload.ScaleSmall, PageSize: 4096, Seed: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := eng.Run(ctx, spec)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; not prompt", elapsed)
	}
	// The cancelled run must not poison the memo: a fresh context
	// re-executes and succeeds.
	res = eng.Run(context.Background(), spec)
	if res.Err != nil {
		t.Fatalf("rerun after cancel: %v", res.Err)
	}
	if res.Cached {
		t.Error("rerun served the cancelled run from cache")
	}
}

// TestRunAllCancellationStopsDispatch cancels a sweep mid-flight:
// RunAll must return ctx.Err(), every unfinished result must carry the
// context error, and the worker goroutines must drain (no leak).
func TestRunAllCancellationStopsDispatch(t *testing.T) {
	var specs []RunSpec
	for _, w := range []string{"compress", "gcc", "tomcatv", "doduc"} {
		specs = append(specs, RunSpec{
			Workload: w, Design: "T4", Budget: prog.Budget32,
			Scale: workload.ScaleSmall, PageSize: 4096, Seed: 1,
		})
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	results, err := New().RunAll(ctx, specs, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll err = %v, want context.Canceled", err)
	}
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		} else if r.Err != nil {
			t.Errorf("unexpected error: %v", r.Err)
		}
	}
	if cancelled == 0 {
		t.Error("no result carries the cancellation error")
	}
	// Workers must exit promptly once cancelled.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestRunAllProgressCarriesTimings asserts the upgraded progress
// callbacks deliver per-run wall time and monotone Done counts.
func TestRunAllProgressCarriesTimings(t *testing.T) {
	specs := sweepTestSpecs()
	lastDone := 0
	sawWall := false
	results, err := New().RunAll(context.Background(), specs, 2, func(p Progress) {
		if p.Done != lastDone+1 {
			t.Errorf("Done jumped from %d to %d", lastDone, p.Done)
		}
		lastDone = p.Done
		if p.Total != len(specs) {
			t.Errorf("Total = %d", p.Total)
		}
		if p.Result == nil {
			t.Fatal("nil Result in progress")
		}
		if p.Result.Wall > 0 {
			sawWall = true
		}
		if p.ETA < 0 {
			t.Errorf("negative ETA %v", p.ETA)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != len(specs) {
		t.Errorf("final Done = %d, want %d", lastDone, len(specs))
	}
	if !sawWall {
		t.Error("no progress update carried a wall time")
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}
