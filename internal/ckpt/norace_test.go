//go:build !race

package ckpt

// Allocation budgets: the race detector allocates on its own account,
// so these hold only without it.

import (
	"context"
	"runtime"
	"testing"

	"hbat/internal/prog"
	"hbat/internal/workload"
)

// TestBuildAllocBudget pins the bytes of building a full-scale program
// and its checkpoint 99 % deep, as ffwd-99 does for each workload:
// mpeg_play, whose fast-forward reads 180 frames it never writes, and
// tfft, whose image is the largest. They read 1.07 MB and 1.80 MB with
// the image written in place and mapped copy-on-write, and the budgets
// are about 1.2x that. Staging arrays, encoding buffers, a loader that
// copies the image and reads that allocate read 1.89 MB and 3.37 MB.
func TestBuildAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale builds")
	}
	for _, c := range []struct {
		workload string
		budget   uint64
	}{
		{"mpeg_play", 1_300_000},
		{"tfft", 2_150_000},
	} {
		w, err := workload.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Build(prog.Budget32, workload.ScaleFull)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testBuildConfig(depth99(t, p))
		// Two collections empty the pool of spare tag arrays, so every
		// run measures a build from nothing.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if p, err = w.Build(prog.Budget32, workload.ScaleFull); err != nil {
			t.Fatal(err)
		}
		if _, err := Build(context.Background(), p, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		n := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: program and checkpoint allocated %d bytes", c.workload, n)
		if n > c.budget {
			t.Errorf("%s: program and checkpoint allocated %d bytes, budget %d", c.workload, n, c.budget)
		}
	}
}
