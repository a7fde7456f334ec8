//go:build !race

package fleet_test

// Allocation budgets: the race detector allocates on its own account,
// so these hold only without it.

import (
	"runtime"
	"testing"
)

// Bytes allocated per store-hit job in this process — the client, the
// front ends, the workers and their span tracers together: the rig's
// own reading with ~1.2x headroom. The rig reads 21.0 KiB straight to
// a worker and 17.0 KiB through a coordinator, whose front end answers
// the job from its own store at intake: no dispatch, no worker. Each
// job is one HTTP exchange, the submit, whose 202 carries the finished
// status and the stored artifact; it read 26.4 and 22.4 KiB while the
// client fetched the artifact in a second exchange, and 34.6 and 30.4
// KiB while it spent a third asking for the status. The coordinator read
// 84 KiB while it dispatched a stored spec to a worker and looked in
// its store only after the worker answered, and 150 KiB while each
// dispatch stream also pre-allocated a 64 KiB line buffer and each job
// event feed 64 by-value events.
const (
	directHitJobBudget = 25 << 10
	fleetHitJobBudget  = 20 << 10
)

// TestHitJobAllocBudget drives closed-loop store-hit jobs straight to a
// worker and through a coordinator over two workers, and fails when a
// job allocates more than its budget.
func TestHitJobAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name        string
		coordinated bool
		budget      uint64
	}{
		{"direct", false, directHitJobBudget},
		{"coordinator", true, fleetHitJobBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHitRig(t, tc.coordinated)
			h.warm(t)
			const jobs = 400
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range jobs {
				h.job(t)
			}
			runtime.ReadMemStats(&after)
			perJob := (after.TotalAlloc - before.TotalAlloc) / jobs
			t.Logf("%s: %.1f KiB and %d allocations per job (budget %d KiB)",
				tc.name, float64(perJob)/1024, (after.Mallocs-before.Mallocs)/jobs, tc.budget>>10)
			if perJob > tc.budget {
				t.Errorf("%s: a store-hit job allocates %.1f KiB, over its %d KiB budget",
					tc.name, float64(perJob)/1024, tc.budget>>10)
			}
		})
	}
}
