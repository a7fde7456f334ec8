//go:build !race

package cpu

// Allocation budgets: the race detector allocates on its own account,
// so these hold only without it.

import (
	"runtime"
	"testing"

	"hbat/internal/prog"
	"hbat/internal/workload"
)

// TestRecycledRunAllocBudget: a from-reset run that starts from a
// released machine allocates at most a quarter of what a run on a new
// machine does. For test-scale compress under T4 a new machine's run
// reads 245 KiB (memory frames about half, then the tag arrays, ROB,
// predictor, TLB banks and metrics registry) and a recycled one's
// 29 KiB: the address space, the translation device, the metrics
// registry and its snapshot.
func TestRecycledRunAllocBudget(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	// run allocates a machine for p, runs it, snapshots its metrics as
	// the engine does, and releases it; it returns the machine and the
	// bytes allocated.
	run := func() (*Machine, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewWithDesign(p, DefaultConfig(), "T4")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		_ = m.Metrics().Snapshot()
		m.Release()
		runtime.ReadMemStats(&after)
		return m, after.TotalAlloc - before.TotalAlloc
	}
	DrainReleased()
	first, fresh := run()
	for try := 0; ; try++ {
		m, recycled := run()
		if m != first && try < 10 {
			// The pool dropped the machine: this run was a fresh one.
			first = m
			continue
		}
		t.Logf("new machine %.1f KiB, recycled machine %.1f KiB", float64(fresh)/1024, float64(recycled)/1024)
		if m != first {
			t.Fatal("New never started from the released machine")
		}
		if recycled > fresh/4 {
			t.Errorf("a run on a recycled machine allocates %.1f KiB, over a quarter of a new machine's %.1f KiB",
				float64(recycled)/1024, float64(fresh)/1024)
		}
		return
	}
}
