package engine

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// TestArtifactsIndependentOfScheduling: results do not change with the
// worker count or the order the specs run in. A grid slice — four
// workloads under all thirteen designs, plus two fast-forwarding specs
// — runs on a fresh engine serially, on two workers, and on two
// workers in reverse order; every spec's artifact must be the same
// bytes each time. Each run's machine is the next one's starting point
// (cpu.Machine.Release), so this is what catches state leaking from one
// run into another through a recycled machine.
func TestArtifactsIndependentOfScheduling(t *testing.T) {
	var specs []RunSpec
	for _, w := range []string{"compress", "gcc", "tomcatv", "xlisp"} {
		for _, d := range tlb.DesignOrder {
			specs = append(specs, RunSpec{
				Workload: w, Design: d, Budget: prog.Budget32,
				Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
			})
		}
	}
	specs = append(specs, ffwdSpec("I4"), ffwdSpec("PB2"))

	artifacts := func(specs []RunSpec, par int) map[string][]byte {
		t.Helper()
		results, err := New().RunAll(context.Background(), specs, par, nil)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		out := make(map[string][]byte, len(results))
		for _, r := range results {
			if r.Err != nil || r.Cached {
				t.Fatalf("par=%d: %s: err %v, cached %v", par, r.Spec, r.Err, r.Cached)
			}
			out[r.Spec.Hash()] = Artifact(Wire(r))
		}
		return out
	}
	want := artifacts(specs, 1)
	reversed := slices.Clone(specs)
	slices.Reverse(reversed)
	for name, got := range map[string]map[string][]byte{
		"two workers":          artifacts(specs, 2),
		"two workers, reverse": artifacts(reversed, 2),
	} {
		for _, s := range specs {
			if !bytes.Equal(got[s.Hash()], want[s.Hash()]) {
				t.Errorf("%s: %s artifact differs from the serial run's", name, s)
			}
		}
	}
}
