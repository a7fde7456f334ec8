//go:build !race

package cpu

// Allocation budgets: the race detector allocates on its own account,
// so these hold only without it.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// recycledRunBudget bounds the bytes one from-reset run allocates on a
// released machine that has run its design before. Such a run reads 0
// bytes; 512 leaves room for an allocation the runtime makes on its own
// account and still fails if any per-run structure comes back: a
// device's banks (about 11 KiB), the metrics registry (8) or its
// snapshot (7), the page table's map (2) or its entries (0.8).
const recycledRunBudget = 512

// TestRecycledRunAllocBudget: a from-reset run on a recycled machine
// allocates only what the run itself needs. Test-scale compress runs
// under each of the 13 designs in turn, as the engine runs it: New,
// Run, Stats, DTLB.Stats and Observed copied out by value, Release.
// Once the machine has run every design, each further run allocates
// nothing: the budget holds each design's fewest bytes over three
// passes, since a bank's index map may still grow now and then (Go's
// maps reseed on clear, and a grown map stays grown), while a per-run
// structure shows in every pass. A new machine's first run reads about 245 KiB (memory frames
// about half, then the tag arrays, ROB, predictor, TLB banks and
// metrics registry), and a recycled machine's first run of a design
// about 11 KiB, its device.
func TestRecycledRunAllocBudget(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	// run builds a machine for p under design, runs it, copies its
	// results out and releases it; it returns the machine and the
	// bytes allocated.
	run := func(design string) (*Machine, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewWithDesign(p, DefaultConfig(), design)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		res := struct {
			s Stats
			t tlb.Stats
			o Observed
		}{*m.Stats(), *m.DTLB.Stats(), m.Observed()}
		m.Release()
		runtime.ReadMemStats(&after)
		_ = res
		return m, after.TotalAlloc - before.TotalAlloc
	}
	designs := tlb.DesignOrder
	// A collection empties the pool, and the next Put allocates the
	// pool's per-P array on this run's account: measure without one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	DrainReleased()
	const passes = 3
	var (
		m0       *Machine
		streak   int               // consecutive runs on m0
		least    map[string]uint64 // per design, the fewest bytes a measured run read
		measured int
	)
	for i := 0; measured < passes*len(designs); i++ {
		if i == 20*len(designs) {
			t.Fatal("New never started from the released machine for long enough")
		}
		d := designs[i%len(designs)]
		m, n := run(d)
		if m != m0 {
			// The pool dropped the machine (the goroutine moved to
			// another P): start over on this one.
			m0, streak, least, measured = m, 0, map[string]uint64{}, 0
		}
		if streak++; streak <= len(designs) {
			continue // m0 may not have run d before
		}
		measured++
		if b, ok := least[d]; !ok || n < b {
			least[d] = n
		}
	}
	worst, worstAt := uint64(0), ""
	for _, d := range designs {
		t.Logf("%-5s %d B", d, least[d])
		if least[d] >= worst {
			worst, worstAt = least[d], d
		}
	}
	if worst > recycledRunBudget {
		t.Errorf("a recycled run under %s allocates %d B, over the %d B budget", worstAt, worst, recycledRunBudget)
	}
}
