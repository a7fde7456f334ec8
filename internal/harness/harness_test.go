package harness

import (
	"context"
	"strings"
	"testing"

	"hbat/internal/engine"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

func TestRunSingle(t *testing.T) {
	r := engine.New().Run(context.Background(), engine.RunSpec{
		Workload: "espresso", Design: "T4", Budget: prog.Budget32,
		Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Stats.Committed == 0 || r.Stats.Cycles == 0 {
		t.Fatalf("empty stats: %+v", r.Stats)
	}
	if r.TLB.Lookups == 0 {
		t.Fatal("no TLB lookups recorded")
	}
}

func TestRunUnknownNamesError(t *testing.T) {
	eng, ctx := engine.New(), context.Background()
	if r := eng.Run(ctx, engine.RunSpec{Workload: "nope", Design: "T4", Budget: prog.Budget32, PageSize: 4096}); r.Err == nil {
		t.Fatal("unknown workload accepted")
	}
	if r := eng.Run(ctx, engine.RunSpec{Workload: "perl", Design: "Z9", Budget: prog.Budget32, PageSize: 4096}); r.Err == nil {
		t.Fatal("unknown design accepted")
	}
}

func TestRunAllPreservesOrderAndReportsProgress(t *testing.T) {
	specs := []engine.RunSpec{
		{Workload: "perl", Design: "T4", Budget: prog.Budget32, Scale: workload.ScaleTest, PageSize: 4096},
		{Workload: "perl", Design: "T1", Budget: prog.Budget32, Scale: workload.ScaleTest, PageSize: 4096},
		{Workload: "doduc", Design: "M8", Budget: prog.Budget32, Scale: workload.ScaleTest, PageSize: 4096},
	}
	calls := 0
	results, err := engine.New().RunAll(context.Background(), specs, 2, func(p engine.Progress) {
		calls++
		if p.Total != 3 {
			t.Errorf("total = %d", p.Total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("progress calls = %d", calls)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i, r.Err)
		}
		if r.Spec.String() != specs[i].String() {
			t.Fatalf("result %d out of order: %v", i, r.Spec)
		}
	}
}

// testFigureOpts runs the design grids over a reduced set for speed.
func testFigureOpts() Options {
	return Options{
		Scale:     workload.ScaleTest,
		Seed:      1,
		Workloads: []string{"espresso", "xlisp", "mpeg_play"},
		Designs:   []string{"T4", "T1", "M8", "PB2", "I4"},
	}
}

func TestFigure5ShapeOnSubset(t *testing.T) {
	f, err := Figure5(context.Background(), testFigureOpts())
	if err != nil {
		t.Fatal(err)
	}
	t4 := f.NormalizedAvg("T4")
	if t4 < 0.999 || t4 > 1.001 {
		t.Fatalf("T4 normalizes to %f", t4)
	}
	// The paper's central orderings (Section 4.3).
	if f.NormalizedAvg("T1") >= f.NormalizedAvg("T4") {
		t.Error("T1 not worse than T4")
	}
	if f.NormalizedAvg("M8") <= f.NormalizedAvg("T1") {
		t.Error("M8 not better than T1")
	}
	if f.NormalizedAvg("PB2") <= f.NormalizedAvg("I4") {
		t.Error("PB2 not better than plain interleaving")
	}
	for _, d := range f.Designs {
		for _, w := range f.Workloads {
			if f.IPC[d][w] <= 0 {
				t.Errorf("IPC[%s][%s] = %f", d, w, f.IPC[d][w])
			}
		}
	}
}

func TestFigure7InOrderIsSlowerButCloser(t *testing.T) {
	opts := testFigureOpts()
	f5, err := Figure5(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Figure7(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if f7.WeightedAvgIPC("T4") >= f5.WeightedAvgIPC("T4") {
		t.Error("in-order IPC not below out-of-order IPC")
	}
	// Reduced bandwidth demand: T1's relative penalty shrinks in-order
	// (Section 4.4).
	if f7.NormalizedAvg("T1") <= f5.NormalizedAvg("T1") {
		t.Errorf("T1 in-order (%.3f) not closer to T4 than out-of-order (%.3f)",
			f7.NormalizedAvg("T1"), f5.NormalizedAvg("T1"))
	}
}

func TestFigure9FewRegistersRaisesTraffic(t *testing.T) {
	opts := testFigureOpts()
	f5, err := Figure5(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	f9, err := Figure9(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Sharply higher bandwidth demand: T1 suffers much more (4.6).
	if f9.NormalizedAvg("T1") >= f5.NormalizedAvg("T1") {
		t.Errorf("T1 few-regs (%.3f) not worse than baseline (%.3f)",
			f9.NormalizedAvg("T1"), f5.NormalizedAvg("T1"))
	}
	// The multi-level design holds up (Section 4.6).
	if f9.NormalizedAvg("M8") < 0.9 {
		t.Errorf("M8 collapsed under few registers: %.3f", f9.NormalizedAvg("M8"))
	}
}

func TestTable3Characterization(t *testing.T) {
	rows, err := Table3(context.Background(), Options{Scale: workload.ScaleTest, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Insts == 0 || r.CommitIPC <= 0 || r.CommitIPC > 8 {
			t.Errorf("%s: implausible row %+v", r.Workload, r)
		}
		if r.IssueIPC < r.CommitIPC {
			t.Errorf("%s: issued IPC %f below committed %f", r.Workload, r.IssueIPC, r.CommitIPC)
		}
		if r.BranchRate < 0.5 || r.BranchRate > 1 {
			t.Errorf("%s: branch rate %f", r.Workload, r.BranchRate)
		}
	}
}

func TestFigure6MonotoneInSize(t *testing.T) {
	f, err := Figure6(context.Background(), Options{Scale: workload.ScaleTest, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range f.Workloads {
		// Rates must not grow substantially with size (random
		// replacement allows small non-monotonicity).
		for i := 1; i < len(f.Sizes); i++ {
			lo, hi := f.MissRate[wl][f.Sizes[i]], f.MissRate[wl][f.Sizes[i-1]]
			if lo > hi+0.02 {
				t.Errorf("%s: miss rate rose from %.4f@%d to %.4f@%d",
					wl, hi, f.Sizes[i-1], lo, f.Sizes[i])
			}
		}
	}
	// The low-locality trio must be the worst at small sizes (4.3).
	bad := f.MissRate["compress"][8] + f.MissRate["mpeg_play"][8] + f.MissRate["tfft"][8]
	good := f.MissRate["doduc"][8] + f.MissRate["espresso"][8] + f.MissRate["tomcatv"][8]
	if bad <= good {
		t.Errorf("low-locality trio (%.4f) not worse than high-locality trio (%.4f) at 8 entries", bad, good)
	}
}

func TestRenderers(t *testing.T) {
	opts := testFigureOpts()
	f, err := Figure5(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderFigure(&sb, f)
	out := sb.String()
	for _, want := range []string{"fig5", "RTW-avg", "T4", "espresso"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderFigure output missing %q", want)
		}
	}
	sb.Reset()
	FigureCSV(&sb, f)
	if !strings.Contains(sb.String(), "fig5,T4,espresso,") {
		t.Error("CSV output malformed")
	}
	sb.Reset()
	RenderTable2(&sb)
	if !strings.Contains(sb.String(), "I4/PB") {
		t.Error("Table 2 output missing designs")
	}
	rows, err := Table3(context.Background(), Options{Scale: workload.ScaleTest, Workloads: []string{"perl"}})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	RenderTable3(&sb, rows)
	if !strings.Contains(sb.String(), "perl") {
		t.Error("Table 3 output missing workload")
	}
	f6, err := Figure6(context.Background(), Options{Scale: workload.ScaleTest, Workloads: []string{"perl"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	RenderFigure6(&sb, f6)
	if !strings.Contains(sb.String(), "RTW-avg") {
		t.Error("Figure 6 output missing average row")
	}
}

func TestModelStudy(t *testing.T) {
	rows, err := ModelStudy(context.Background(), Options{
		Scale:     workload.ScaleTest,
		Seed:      1,
		Workloads: []string{"xlisp", "espresso"},
		Designs:   []string{"T4", "T1", "M8", "PB2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ModelRow{}
	for _, r := range rows {
		byName[r.Design] = r
	}
	if byName["M8"].FShielded < 0.5 {
		t.Errorf("M8 f_shielded = %f", byName["M8"].FShielded)
	}
	if byName["T1"].TStalled <= byName["T4"].TStalled {
		t.Error("T1 should queue more than T4")
	}
	if byName["T4"].RelIPC < 0.999 || byName["T4"].RelIPC > 1.001 {
		t.Errorf("T4 relative IPC = %f", byName["T4"].RelIPC)
	}
	var sb strings.Builder
	RenderModelStudy(&sb, rows)
	if !strings.Contains(sb.String(), "f_TOL") {
		t.Error("model render incomplete")
	}
}

// TestModelStudyFitsFigure5Runs: the model study fits the runs Figure 5
// made, fast-forward depth included, so after Figure 5 it simulates
// nothing new.
func TestModelStudyFitsFigure5Runs(t *testing.T) {
	eng := engine.New()
	opts := Options{
		Scale: workload.ScaleTest, Seed: 1, FastForward: 1000, Engine: eng,
		Workloads: []string{"xlisp", "espresso"}, Designs: []string{"T4", "M8"},
	}
	ctx := context.Background()
	if _, err := Figure5(ctx, opts); err != nil {
		t.Fatal(err)
	}
	fig5 := eng.CacheStats().SpecMisses
	if fig5 != 4 {
		t.Fatalf("Figure 5 simulated %d specs, want 4", fig5)
	}
	rows, err := ModelStudy(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("model study fitted %d designs, want 2", len(rows))
	}
	if n := eng.CacheStats().SpecMisses; n != fig5 {
		t.Errorf("the model study simulated %d specs after Figure 5, want none", n-fig5)
	}
}

// TestPaperHeadlineOrderings runs the complete Table 2 design set and
// asserts the orderings the paper's conclusions rest on (Section 5).
func TestPaperHeadlineOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("full design grid")
	}
	f, err := Figure5(context.Background(), Options{
		Scale:     workload.ScaleTest,
		Seed:      1,
		Workloads: []string{"espresso", "xlisp", "mpeg_play", "ghostscript"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := func(d string) float64 { return f.NormalizedAvg(d) }

	// Port count orders the multi-ported designs.
	if !(n("T4") >= n("T2") && n("T2") >= n("T1")) {
		t.Errorf("multi-ported ordering broken: %.3f %.3f %.3f", n("T4"), n("T2"), n("T1"))
	}
	// "Clearly, to not impact system performance, a translation device
	// will have to provide at least two translations per cycle."
	if n("T1") > 0.95 {
		t.Errorf("T1 = %.3f; single port should visibly hurt", n("T1"))
	}
	// Multi-level TLBs nearly reach unlimited bandwidth; bigger L1s help.
	for _, d := range []string{"M16", "M8", "M4"} {
		if n(d) < 0.93 {
			t.Errorf("%s = %.3f; multi-level should be near T4", d, n(d))
		}
	}
	if n("M16") < n("M4")-0.02 {
		t.Errorf("M16 (%.3f) should not trail M4 (%.3f)", n("M16"), n("M4"))
	}
	// Pretranslation performs well but not above the multi-level family.
	if n("P8") < 0.9 || n("P8") > n("M16")+0.02 {
		t.Errorf("P8 = %.3f (M16 %.3f)", n("P8"), n("M16"))
	}
	// Interleaving alone trails piggybacked or multi-level approaches.
	for _, d := range []string{"I8", "I4", "X4"} {
		if n(d) >= n("I4/PB") {
			t.Errorf("%s (%.3f) should trail I4/PB (%.3f)", d, n(d), n("I4/PB"))
		}
	}
	// "A piggybacked dual-ported TLB appears to be an adequate
	// substitute for a four-ported TLB."
	if n("PB2") < 0.97 {
		t.Errorf("PB2 = %.3f", n("PB2"))
	}
	// Piggybacking rescues the interleaved design.
	if n("I4/PB") < n("I4")+0.02 {
		t.Errorf("I4/PB (%.3f) should clearly beat I4 (%.3f)", n("I4/PB"), n("I4"))
	}
}
