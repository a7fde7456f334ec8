package engine

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"hbat/internal/emu"
	"hbat/internal/prog"
	"hbat/internal/runspan"
	"hbat/internal/workload"
)

// ffwdGrid is a workload-major grid — the order every figure and the
// benchmark's ffwd-99 plan list their specs in — fast-forwarding each
// workload ffwd(workload) instructions; 0 makes the specs from-reset.
func ffwdGrid(workloads, designs []string, ffwd func(string) uint64) []RunSpec {
	var specs []RunSpec
	for _, w := range workloads {
		for _, d := range designs {
			specs = append(specs, RunSpec{
				Workload: w, Design: d, Budget: prog.Budget32,
				Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
				FastForward: ffwd(w),
			})
		}
	}
	return specs
}

// uniform is the cost vector of a fresh engine: every estimate equal.
func uniform(n int) []float64 {
	cost := make([]float64, n)
	for i := range cost {
		cost[i] = 1
	}
	return cost
}

func TestDispatchOrder(t *testing.T) {
	fromReset := func(string) uint64 { return 0 }
	deep := func(string) uint64 { return 10_000 }

	isPermutation := func(t *testing.T, order []int, n int) {
		t.Helper()
		sorted := append([]int(nil), order...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("order %v is not a permutation of 0..%d", order, n-1)
			}
		}
		if len(order) != n {
			t.Fatalf("order has %d indices, want %d", len(order), n)
		}
	}

	t.Run("from-reset grid keeps grid order", func(t *testing.T) {
		specs := ffwdGrid(workload.Names(), []string{"T4", "T2", "M8", "PB2"}, fromReset)
		order := dispatchOrder(specs, uniform(len(specs)))
		for i, v := range order {
			if v != i {
				t.Fatalf("order[%d] = %d: equal-cost from-reset specs must keep grid order", i, v)
			}
		}
	})

	t.Run("ffwd-99 plan leads with one spec per checkpoint", func(t *testing.T) {
		names := workload.Names()
		specs := ffwdGrid(names, []string{"T4", "M8", "PB2"}, deep)
		order := dispatchOrder(specs, uniform(len(specs)))
		isPermutation(t, order, len(specs))
		seen := make(map[ckptKey]bool)
		for _, i := range order[:len(names)] {
			k := specs[i].ckptKey()
			if seen[k] {
				t.Fatalf("order %v: two of the first %d specs share checkpoint %+v", order, len(names), k)
			}
			seen[k] = true
		}
		// Stable within each group: leaders and followers in grid order.
		for _, group := range [][]int{order[:len(names)], order[len(names):]} {
			if !sort.IntsAreSorted(group) {
				t.Errorf("equal-cost group %v left grid order", group)
			}
		}
	})

	t.Run("longest job first within each group", func(t *testing.T) {
		// Two checkpoints × three designs, then two from-reset specs;
		// costs rise with the index so LJF reverses each group.
		specs := ffwdGrid([]string{"compress", "gcc"}, []string{"T4", "M8", "PB2"}, deep)
		specs = append(specs, ffwdGrid([]string{"perl"}, []string{"T4", "M8"}, fromReset)...)
		cost := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		order := dispatchOrder(specs, cost)
		isPermutation(t, order, len(specs))
		if want := []int{5, 2, 7, 6, 4, 3, 1, 0}; !reflect.DeepEqual(order, want) {
			t.Fatalf("order = %v, want %v (costliest spec of each checkpoint first, then the rest by cost)", order, want)
		}
	})

	t.Run("distinct depths are distinct checkpoints", func(t *testing.T) {
		specs := ffwdGrid([]string{"compress"}, []string{"T4", "M8"}, deep)
		specs = append(specs, ffwdGrid([]string{"compress"}, []string{"T4", "M8"}, func(string) uint64 { return 20_000 })...)
		order := dispatchOrder(specs, uniform(len(specs)))
		if want := []int{0, 2, 1, 3}; !reflect.DeepEqual(order, want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
	})
}

// ffwd99Grid is ffwdGrid with every workload fast-forwarding 99 % of its
// functional instruction count (counted here on the emulator), the
// shape of the benchmark's ffwd-99 plan at test scale.
func ffwd99Grid(t *testing.T, workloads, designs []string) []RunSpec {
	t.Helper()
	depth := make(map[string]uint64)
	for _, name := range workloads {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Build(prog.Budget32, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		m, err := emu.New(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		depth[name] = m.InstCount * 99 / 100
	}
	return ffwdGrid(workloads, designs, func(w string) uint64 { return depth[w] })
}

// TestRunAllWorkersBuildDifferentCheckpoints is the behaviour
// dispatchOrder exists for: on a fresh engine a checkpointed grid must
// keep its workers building, not parked on each other's builds. The
// bound is a count, not a share of wall time: every checkpoint leader is
// dispatched before any follower, so only the last build in flight can
// be waited on, and only by the one worker left free — at most
// parallelism-1 singleflight_wait spans (checkpoint and program-build
// waits alike). Grid-order dispatch parks a worker behind nearly every
// build.
func TestRunAllWorkersBuildDifferentCheckpoints(t *testing.T) {
	specs := ffwd99Grid(t, []string{"compress", "gcc", "mpeg_play", "tomcatv"}, []string{"T4", "M8", "PB2"})

	const parallelism = 2
	eng := New()
	tr := runspan.New(runspan.Config{})
	eng.SetSpans(tr)
	results, err := eng.RunAll(context.Background(), specs, parallelism, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if cs := eng.CacheStats(); cs.CkptMisses != 4 || cs.CkptHits != 8 {
		t.Errorf("checkpoint cache: %d misses, %d hits; want 4 builds serving 8 more runs", cs.CkptMisses, cs.CkptHits)
	}
	by := spansByName(tr)
	if n := len(by["ckpt_build"]); n != 4 {
		t.Errorf("got %d ckpt_build spans, want 4", n)
	}
	if n := len(by["singleflight_wait"]); n > parallelism-1 {
		t.Errorf("got %d singleflight_wait spans, want at most %d: workers queued on each other's builds", n, parallelism-1)
	}
}

// TestFastForwardRunsDoNotTeachFromResetCost: a checkpointed sweep's
// wall times — a 1 % window, plus the checkpoint build for one run per
// workload — say nothing about the same workload simulated from reset,
// so they must not become its estimate.
func TestFastForwardRunsDoNotTeachFromResetCost(t *testing.T) {
	specs := ffwd99Grid(t, []string{"compress", "gcc"}, []string{"T4", "M8", "PB2"})
	fresh, eng := New(), New()
	if _, err := eng.RunAll(context.Background(), specs, 2, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if eng.estimate(s) == fresh.estimate(s) {
			t.Errorf("%s: the sweep taught no estimate for its own key", s)
		}
		s.FastForward = 0
		if got, want := eng.estimate(s), fresh.estimate(s); got != want {
			t.Errorf("%s from reset: estimate %v s after a fast-forwarded sweep, want the scale default %v s", s, got, want)
		}
	}
}

// TestConcurrentRestoresFromOneCheckpoint runs eight lockstep-checked
// windows at once behind one in-memory checkpoint. Restores alias the
// checkpoint's frames copy-on-write, so under -race this is the proof
// that no machine (nor its lockstep reference) writes the shared image,
// and that sharing changes no result.
func TestConcurrentRestoresFromOneCheckpoint(t *testing.T) {
	designs := []string{"T4", "T2", "T1", "M8", "P8", "I4", "PB2", "I4/PB"}
	specs := ffwdGrid([]string{"compress"}, designs, func(string) uint64 { return 20_000 })
	for i := range specs {
		specs[i].Lockstep = true
	}
	ctx := context.Background()

	want := make([]RunResult, len(specs))
	seq := New()
	for i, s := range specs {
		if want[i] = seq.Run(ctx, s); want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
	}

	eng := New()
	if r := eng.Run(ctx, specs[0]); r.Err != nil { // builds the checkpoint
		t.Fatal(r.Err)
	}
	eng.Forget(specs[0])
	got := make([]RunResult, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = eng.Run(ctx, specs[i])
		}(i)
	}
	wg.Wait()
	if cs := eng.CacheStats(); cs.CkptMisses != 1 || cs.CkptHits != uint64(len(specs)) {
		t.Errorf("checkpoint cache: %d misses, %d hits; want every concurrent run restoring the one build", cs.CkptMisses, cs.CkptHits)
	}
	for i := range specs {
		if got[i].Err != nil {
			t.Fatalf("%s: %v", specs[i], got[i].Err)
		}
		if got[i].Stats.FastForwarded != 20_000 || got[i].Cached {
			t.Errorf("%s: FastForwarded %d, cached %v; want a restored, executed run", specs[i], got[i].Stats.FastForwarded, got[i].Cached)
		}
		if !reflect.DeepEqual(got[i].Stats, want[i].Stats) || !reflect.DeepEqual(got[i].TLB, want[i].TLB) ||
			got[i].Observed != want[i].Observed {
			t.Errorf("%s: concurrent restore diverges from the sequential run", specs[i])
		}
	}
}
