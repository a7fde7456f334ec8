package fleet_test

// Affinity regression: the coordinator shards by rendezvous hashing on
// a checkpoint-affinity key that deliberately excludes the design, so
// every design of one workload lands on the same worker — its
// fast-forward checkpoint is built once and every subsequent design
// (and subsequent job) warms up from cache. If sharding ever switched
// to hashing the full spec key, these tests would see checkpoints
// rebuilt per design and placements scatter.

import (
	"context"
	"testing"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/fleet/fleettest"
)

// ffwdGrid is a workloads × designs grid whose every cell fast-forwards
// (so it needs a checkpoint) at the fast test scale.
func ffwdGrid(designs ...string) *api.Grid {
	return &api.Grid{
		Workloads: []string{"compress", "xlisp"},
		Designs:   designs,
		Template: api.SimOptions{
			CommonOptions: api.CommonOptions{Scale: "test", FastForward: 300},
		},
	}
}

func ckptTotals(rig *fleettest.Rig) (hits, misses uint64) {
	for _, w := range rig.Workers {
		cs := w.Engine.CacheStats()
		hits += cs.CkptHits
		misses += cs.CkptMisses
	}
	return hits, misses
}

// runLog returns e's provenance log, read the way a manifest records it.
func runLog(e *engine.Engine) []engine.RunRecord {
	var m engine.Manifest
	m.RecordRuns(e)
	return m.Runs
}

// byWorkload maps workload → set of workers its specs ran on, using
// the engines' own run logs (ground truth, not coordinator bookkeeping).
func byWorkload(rig *fleettest.Rig) map[string]map[string]bool {
	placements := make(map[string]map[string]bool)
	for _, w := range rig.Workers {
		for _, rec := range runLog(w.Engine) {
			if placements[rec.Workload] == nil {
				placements[rec.Workload] = make(map[string]bool)
			}
			placements[rec.Workload][w.Addr] = true
		}
	}
	return placements
}

func TestFleetAffinityColocatesDesignSweeps(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 3)
	_, cl, _ := newCoord(t, rig, nil)
	ctx := context.Background()

	// Job 1: two workloads × two designs, all fast-forwarding.
	acc, err := cl.Submit(ctx, api.JobRequest{Grid: ffwdGrid("T4", "P8")})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, cl, acc.ID); st.State != api.StateDone {
		t.Fatalf("grid job 1 state %s: %+v", st.State, st.Specs)
	}
	for wl, workers := range byWorkload(rig) {
		if len(workers) != 1 {
			t.Errorf("workload %s ran on %d workers, want its whole design sweep on one", wl, len(workers))
		}
	}
	hits1, misses1 := ckptTotals(rig)
	if misses1 != 2 {
		t.Errorf("job 1 built %d checkpoints across the fleet, want exactly 2 (one per workload)", misses1)
	}
	if hits1 != 2 {
		t.Errorf("job 1 saw %d checkpoint hits, want 2 (second design of each workload)", hits1)
	}

	// Job 2: the same workloads under different designs must land on
	// the same workers and reuse their cached checkpoints — cross-job
	// cache reuse, no new checkpoint builds anywhere.
	acc2, err := cl.Submit(ctx, api.JobRequest{Grid: ffwdGrid("T2", "M8")})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, cl, acc2.ID); st.State != api.StateDone {
		t.Fatalf("grid job 2 state %s: %+v", st.State, st.Specs)
	}
	for wl, workers := range byWorkload(rig) {
		if len(workers) != 1 {
			t.Errorf("after job 2, workload %s has run on %d workers, want 1", wl, len(workers))
		}
	}
	hits2, misses2 := ckptTotals(rig)
	if misses2 != misses1 {
		t.Errorf("job 2 built %d new checkpoints, want 0 (cross-job reuse)", misses2-misses1)
	}
	if hits2 <= hits1 {
		t.Errorf("job 2 did not grow checkpoint hits (%d -> %d)", hits1, hits2)
	}
}

// TestFleetAffinityStableAcrossCoordinators: placement is a pure
// function of (affinity key, worker set), so a brand-new coordinator
// over the same fleet assigns the same specs to the same workers —
// restarting the coordinator keeps every worker's caches relevant.
func TestFleetAffinityStableAcrossCoordinators(t *testing.T) {
	guardGoroutines(t)
	rig := fleettest.New(t, 3)
	ctx := context.Background()

	// Spread across the fleet: many seeds, each its own affinity group.
	req := api.JobRequest{Specs: seedSpecs(10)}

	placement := func(label string) map[string]string {
		_, cl, _ := newCoord(t, rig, nil)
		acc, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, cl, acc.ID)
		if st.State != api.StateDone {
			t.Fatalf("%s job state %s: %+v", label, st.State, st.Specs)
		}
		out := make(map[string]string, len(st.Specs))
		for _, s := range st.Specs {
			out[s.SpecKey] = s.Worker
		}
		return out
	}

	first := placement("first coordinator")
	second := placement("second coordinator")

	same := 0
	for key, w := range first {
		if second[key] == w {
			same++
		}
	}
	if pct := 100 * same / len(first); pct < 90 {
		t.Errorf("only %d%% of specs kept their worker across a coordinator restart, want >= 90%%", pct)
	}

	// The second run never re-simulated anything: every spec was a memo
	// hit on the worker that already ran it.
	var misses uint64
	for _, w := range rig.Workers {
		misses += w.Engine.CacheStats().SpecMisses
	}
	if int(misses) != len(engineRunsOnce(rig)) {
		t.Logf("spec misses across fleet: %d (informational)", misses)
	}
	for key := range first {
		if !engineRanKey(rig, key) {
			t.Errorf("spec %s never appears in any engine run log", key)
		}
	}
}

// engineRunsOnce returns the distinct spec hashes simulated fleet-wide.
func engineRunsOnce(rig *fleettest.Rig) map[string]bool {
	keys := make(map[string]bool)
	for _, w := range rig.Workers {
		for _, rec := range runLog(w.Engine) {
			keys[rec.SpecHash] = true
		}
	}
	return keys
}

func engineRanKey(rig *fleettest.Rig, key string) bool {
	return engineRunsOnce(rig)[key]
}
