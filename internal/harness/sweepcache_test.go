package harness

import (
	"context"
	"testing"

	"hbat/internal/engine"
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

	// The counters are exported through the stats registry.
	snap := eng.MetricsSnapshot()
	byName := map[string]uint64{}
	for _, m := range snap {
		byName[m.Name] = m.Value
	}
	if byName["sweep.spec_cache_hits"] != cs.SpecHits ||
		byName["sweep.spec_cache_misses"] != cs.SpecMisses ||
		byName["sweep.build_cache_hits"] != cs.BuildHits ||
		byName["sweep.build_cache_misses"] != cs.BuildMisses {
		t.Errorf("MetricsSnapshot disagrees with CacheStats: %v vs %+v", byName, cs)
	}
	if byName["sweep.runs_executed"] != cs.SpecMisses {
		t.Errorf("runs_executed = %d, want %d", byName["sweep.runs_executed"], cs.SpecMisses)
	}
}
