package hbat

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"hbat/internal/harness"
	"hbat/internal/report"
	"hbat/internal/workload"
)

func TestSimulateDefaults(t *testing.T) {
	res, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "compress" || res.Design != "T4" {
		t.Fatalf("defaults: %s/%s", res.Workload, res.Design)
	}
	if res.IPC <= 0 || res.Instructions == 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Design: "nope"}); err == nil {
		t.Error("unknown design accepted")
	}
	if _, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "nope"}}); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestSimulateUnknownNamesListChoices(t *testing.T) {
	_, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "nope"})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "compress") {
		t.Errorf("workload error does not list valid names: %v", err)
	}
	_, err = Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Design: "Z9"})
	if err == nil {
		t.Fatal("unknown design accepted")
	}
	if !strings.Contains(err.Error(), "T4") {
		t.Errorf("design error does not list valid names: %v", err)
	}
}

func TestSimulateContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, Options{CommonOptions: CommonOptions{Scale: "test"}}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestSweepStatsAccumulate(t *testing.T) {
	if _, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "perl", Design: "T4"}); err != nil {
		t.Fatal(err)
	}
	s := SweepStats()
	if s.BuildHits+s.BuildMisses == 0 {
		t.Error("no build-cache activity recorded on the process engine")
	}
	if s.SpecHits+s.SpecMisses == 0 {
		t.Error("no memo activity recorded on the process engine")
	}
}

func TestSimulateVariants(t *testing.T) {
	base, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "perl", Design: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	inorder, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "perl", Design: "T1", InOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if inorder.IPC >= base.IPC {
		t.Errorf("in-order IPC %.3f not below OoO %.3f", inorder.IPC, base.IPC)
	}
	few, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "perl", Design: "T1", FewRegisters: true})
	if err != nil {
		t.Fatal(err)
	}
	if few.Loads+few.Stores <= base.Loads+base.Stores {
		t.Error("few-registers build did not raise memory traffic")
	}
	big, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "perl", Design: "M4", PageSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if big.TLBWalks == 0 && base.TLBWalks > 0 {
		t.Log("8k pages eliminated all walks (fine)")
	}
	capped, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "perl", MaxInsts: 500})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Instructions < 500 || capped.Instructions > 600 {
		t.Errorf("MaxInsts cap: committed %d", capped.Instructions)
	}
}

func TestCatalogs(t *testing.T) {
	if len(Designs()) != 13 {
		t.Fatalf("%d designs", len(Designs()))
	}
	if len(Workloads()) != 10 {
		t.Fatalf("%d workloads", len(Workloads()))
	}
	for _, d := range Designs() {
		if desc, err := DesignDescription(d); err != nil || desc == "" {
			t.Errorf("DesignDescription(%s): %q, %v", d, desc, err)
		}
	}
	for _, w := range Workloads() {
		if m, err := WorkloadDescription(w); err != nil || m == "" {
			t.Errorf("WorkloadDescription(%s): %q, %v", w, m, err)
		}
	}
	if _, err := DesignDescription("zz"); err == nil {
		t.Error("unknown design described")
	}
}

func TestRunExperimentTable2AndErrors(t *testing.T) {
	var sb strings.Builder
	if err := RunExperiment(context.Background(), "table2", ExperimentOptions{}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "piggyback") {
		t.Error("table2 output incomplete")
	}
	if err := RunExperiment(context.Background(), "fig99", ExperimentOptions{}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := RunExperiment(context.Background(), "fig5", ExperimentOptions{CommonOptions: CommonOptions{Scale: "bogus"}}, &sb); err == nil {
		t.Error("bad scale accepted")
	}
}

func TestRunExperimentSmallGrid(t *testing.T) {
	var sb strings.Builder
	opts := ExperimentOptions{
		CommonOptions: CommonOptions{Scale: "test"},
		Workloads:     []string{"espresso", "perl"},
		Designs:       []string{"T4", "M8", "PB2"},
	}
	progressed := false
	opts.Progress = func(RunProgress) { progressed = true }
	if err := RunExperiment(context.Background(), "fig5", opts, &sb); err != nil {
		t.Fatal(err)
	}
	if !progressed {
		t.Error("no progress callbacks")
	}
	if !strings.Contains(sb.String(), "RTW-avg") {
		t.Error("figure output incomplete")
	}
	sb.Reset()
	if err := RunExperiment(context.Background(), "table3", opts, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "espresso") {
		t.Error("table3 output incomplete")
	}
	sb.Reset()
	if err := RunExperiment(context.Background(), "fig6", ExperimentOptions{CommonOptions: CommonOptions{Scale: "test"}, Workloads: []string{"perl"}}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "128") {
		t.Error("fig6 output incomplete")
	}
}

// TestFigure6ExperimentIsTheStandaloneStudy: "fig6" through the
// registry (hbat-experiments -only fig6) prints exactly the harness's
// Figure 6 rendering — the standalone miss-rate study needs no binary
// of its own.
func TestFigure6ExperimentIsTheStandaloneStudy(t *testing.T) {
	ctx := context.Background()
	var got bytes.Buffer
	if err := RunExperiment(ctx, "fig6", ExperimentOptions{CommonOptions: CommonOptions{Scale: "test", Seed: 1}}, &got); err != nil {
		t.Fatal(err)
	}
	f, err := harness.Figure6(ctx, harness.Options{Scale: workload.ScaleTest, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	harness.RenderFigure6(&want, f)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("fig6 experiment differs from harness.RenderFigure6:\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
	}
}

// TestWriteReportSimulatesNothingNew: after every experiment has been
// rendered as text, the HTML report (hbat-experiments -html) is served
// from the sweep engine's memo — no spec simulates again — and is byte
// for byte what report.Generate writes for the same options and time.
func TestWriteReportSimulatesNothingNew(t *testing.T) {
	ctx := context.Background()
	opts := ExperimentOptions{
		CommonOptions: CommonOptions{Scale: "test", Seed: 1},
		Workloads:     []string{"espresso", "xlisp", "compress"},
		Designs:       []string{"T4", "T1", "M8", "PB2", "I4"},
	}
	for _, name := range ExperimentNames {
		if err := RunExperiment(ctx, name, opts, io.Discard); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	before := SweepStats().SpecMisses
	if before == 0 {
		t.Fatal("the text experiments simulated nothing")
	}
	now := time.Unix(0, 0)
	var got bytes.Buffer
	if err := WriteReport(ctx, opts, &got, now); err != nil {
		t.Fatal(err)
	}
	if after := SweepStats().SpecMisses; after != before {
		t.Errorf("the report simulated %d specs the text experiments had not", after-before)
	}
	var want bytes.Buffer
	ho := harness.Options{
		Scale: workload.ScaleTest, Seed: 1, Engine: defaultEngine,
		Workloads: opts.Workloads, Designs: opts.Designs,
	}
	if err := report.Generate(ctx, &want, ho, nil, now); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("WriteReport differs from report.Generate with the same options and time")
	}
}

func TestExperimentRegistryDerivedNames(t *testing.T) {
	want := []string{"table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "model"}
	if !reflect.DeepEqual(ExperimentNames, want) {
		t.Errorf("ExperimentNames = %v, want %v", ExperimentNames, want)
	}
	if got, want := CSVExperimentNames(), []string{"fig5", "fig7", "fig8", "fig9"}; !reflect.DeepEqual(got, want) {
		t.Errorf("CSVExperimentNames = %v, want %v", got, want)
	}
}

func TestExperimentCSVRejectsNonCSVExperiments(t *testing.T) {
	var sb strings.Builder
	err := ExperimentCSV(context.Background(), "table2", ExperimentOptions{CommonOptions: CommonOptions{Scale: "test"}}, &sb)
	if err == nil {
		t.Fatal("CSV accepted for a non-grid experiment")
	}
	for _, want := range []string{"table2", "fig5", "fig7", "fig8", "fig9"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("rejection does not name %q: %v", want, err)
		}
	}
	err = ExperimentCSV(context.Background(), "fig99", ExperimentOptions{CommonOptions: CommonOptions{Scale: "test"}}, &sb)
	if err == nil || !strings.Contains(err.Error(), "table3") {
		t.Errorf("unknown experiment error does not list known names: %v", err)
	}
}

func TestBaselineConfigRendering(t *testing.T) {
	cfg := BaselineConfig()
	for _, want := range []string{"64-entry ROB", "32-entry load/store", "GAp", "30-cycle TLB miss"} {
		if !strings.Contains(cfg, want) {
			t.Errorf("BaselineConfig missing %q:\n%s", want, cfg)
		}
	}
}

func TestAnalyzeFacade(t *testing.T) {
	rep, err := Analyze(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "xlisp", Design: "M8"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Design != "M8" || rep.Workload != "xlisp" {
		t.Fatalf("report identity: %s/%s", rep.Design, rep.Workload)
	}
	if rep.FShielded <= 0 {
		t.Errorf("f_shielded = %f", rep.FShielded)
	}
	var sb strings.Builder
	RenderAnalysis(&sb, rep)
	if !strings.Contains(sb.String(), "f_TOL") {
		t.Error("analysis render incomplete")
	}
}

func TestDisassembleFacade(t *testing.T) {
	var sb strings.Builder
	if err := Disassemble("perl", "test", false, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "program perl") {
		t.Error("disassembly incomplete")
	}
	if err := Disassemble("nope", "test", false, &sb); err == nil {
		t.Error("unknown workload disassembled")
	}
}

func TestExtensionOptions(t *testing.T) {
	base, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "espresso", Design: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "espresso", Design: "T1", VirtualCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if vc.IPC <= base.IPC {
		t.Errorf("virtual cache IPC %.3f not above physical %.3f on T1", vc.IPC, base.IPC)
	}
	cs, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "xlisp", Design: "M8", ContextSwitchEvery: 2000})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Simulate(context.Background(), Options{CommonOptions: CommonOptions{Scale: "test"}, Workload: "xlisp", Design: "M8"})
	if err != nil {
		t.Fatal(err)
	}
	if cs.TLBWalks <= plain.TLBWalks {
		t.Error("context switching did not add walks")
	}
}
