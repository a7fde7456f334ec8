package harness

import (
	"context"
	"testing"

	"hbat/internal/engine"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// TestSweepSimulatesEachUniqueSpecOnce is the PR's acceptance check:
// regenerating table3 + fig5 + fig7 + fig8 + fig9 at test scale from
// one engine performs each unique workload build exactly once and each
// unique RunSpec exactly once, observable through the cache counters.
// Table 3's specs are exactly Figure 5's T4 column, so they are the
// only repeats across the five artifacts.
func TestSweepSimulatesEachUniqueSpecOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full design grids")
	}
	eng := engine.New()
	opts := Options{Scale: workload.ScaleTest, Seed: 1, Engine: eng}
	ctx := context.Background()

	if _, err := Table3(ctx, opts); err != nil {
		t.Fatal(err)
	}
	for _, fig := range []func(context.Context, Options) (*FigureResult, error){
		Figure5, Figure7, Figure8, Figure9,
	} {
		if _, err := fig(ctx, opts); err != nil {
			t.Fatal(err)
		}
	}

	W := uint64(len(workload.Names()))
	D := uint64(len(tlb.DesignOrder))
	cs := eng.CacheStats()
	// Unique specs: four full grids (table3 duplicates fig5's T4 column).
	if want := 4 * W * D; cs.SpecMisses != want {
		t.Errorf("spec misses = %d, want %d (each unique spec simulated once)", cs.SpecMisses, want)
	}
	if cs.SpecHits != W {
		t.Errorf("spec hits = %d, want %d (table3's rows reused by fig5)", cs.SpecHits, W)
	}
	// Unique builds: each workload at Budget32 and (for fig9) Budget8.
	if want := 2 * W; cs.BuildMisses != want {
		t.Errorf("build misses = %d, want %d (each unique build performed once)", cs.BuildMisses, want)
	}
	// Every executed spec requests exactly one build; memo hits skip it.
	if want := cs.SpecMisses - cs.BuildMisses; cs.BuildHits != want {
		t.Errorf("build hits = %d, want %d", cs.BuildHits, want)
	}

	// Every memo miss is one executed simulation (the counter /metrics
	// exports as hbat_sweep_runs_executed beside CacheStats').
	if ex := eng.State().Executed; ex != cs.SpecMisses {
		t.Errorf("runs executed = %d, want %d", ex, cs.SpecMisses)
	}
}

// TestReportCheckpointsStayResident counts the distinct checkpoint keys
// the full report's timing runs use at one fast-forward depth (Table 3
// and Figures 5, 7, 8 and 9; Figure 6 does not fast-forward, and the
// model study fits Figure 5's runs), and checks that one engine keeps every one of them: a
// second pass under another seed, where every spec is a memo miss and
// every checkpoint (seed- and design-independent) is requested again,
// builds none. The engine retires the oldest checkpoint first, so that
// holds exactly when the count is within its retention bound. Keys do
// not depend on the design, so two designs stand in for thirteen.
func TestReportCheckpointsStayResident(t *testing.T) {
	if testing.Short() {
		t.Skip("two passes over the report's grids")
	}
	type ckptKey struct {
		workload    string
		budget      prog.RegBudget
		scale       workload.Scale
		pageSize    uint64
		fastForward uint64
	}
	keys := make(map[ckptKey]bool)
	eng := engine.New()
	opts := Options{
		Scale: workload.ScaleTest, FastForward: 1000, Designs: []string{"T4", "M8"}, Engine: eng,
		Progress: func(p engine.Progress) {
			s := p.Result.Spec
			keys[ckptKey{s.Workload, s.Budget, s.Scale, s.PageSize, s.FastForward}] = true
		},
	}
	ctx := context.Background()
	pass := func(seed uint64) engine.CacheStats {
		t.Helper()
		opts.Seed = seed
		if _, err := Table3(ctx, opts); err != nil {
			t.Fatal(err)
		}
		for _, fig := range []func(context.Context, Options) (*FigureResult, error){
			Figure5, Figure7, Figure8, Figure9,
		} {
			if _, err := fig(ctx, opts); err != nil {
				t.Fatal(err)
			}
		}
		return eng.CacheStats()
	}

	first := pass(1)
	t.Logf("the report uses %d checkpoint keys at one depth", len(keys))
	if first.CkptMisses != uint64(len(keys)) {
		t.Fatalf("first pass built %d checkpoints for %d keys", first.CkptMisses, len(keys))
	}
	second := pass(2)
	if second.CkptMisses != first.CkptMisses || second.CkptHits <= first.CkptHits {
		t.Errorf("second pass built %d checkpoints (%d memory hits): the report's %d keys do not all stay resident",
			second.CkptMisses-first.CkptMisses, second.CkptHits-first.CkptHits, len(keys))
	}
}
