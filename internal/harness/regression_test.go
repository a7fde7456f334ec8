package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hbat/internal/engine"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

// regressionCorpus is the statistical regression fixture
// (testdata/regression.json): the paper-facing numbers the simulator
// must keep reproducing — Figure 6 miss rates and the baseline T4 IPC
// per workload — with explicit tolerances. Unlike the byte-exact golden
// reports, this corpus tolerates small intentional timing-model tweaks
// but fails tier-1 on real drift. Regenerate after an intentional
// change with:
//
//	go test ./internal/harness/ -run TestRegressionCorpus -update
type regressionCorpus struct {
	Description string `json:"description"`
	// IPCTolerance is relative (fraction of the recorded IPC);
	// MissTolerance is absolute (miss rates live in [0,1]).
	IPCTolerance  float64 `json:"ipc_tolerance"`
	MissTolerance float64 `json:"miss_tolerance"`
	// BaselineIPC[workload] is the T4 commit IPC on the baseline 8-way
	// out-of-order machine at test scale.
	BaselineIPC map[string]float64 `json:"baseline_ipc"`
	// Figure6[workload][size] is the data-reference TLB miss rate of the
	// fully-associative sizes of Figure 6 (JSON object keys, so the
	// sizes are strings).
	Figure6 map[string]map[string]float64 `json:"figure6_miss_rates"`
}

// regressionOpts covers every workload at test scale on one engine.
func regressionOpts(e *engine.Engine) Options {
	return Options{Scale: workload.ScaleTest, Seed: 1, Engine: e}
}

// measureRegression produces the corpus values from the current
// simulator.
func measureRegression(t *testing.T) *regressionCorpus {
	t.Helper()
	e := engine.New()
	opts := regressionOpts(e)

	got := &regressionCorpus{
		Description:   "statistical regression corpus: baseline T4 IPC + Figure 6 miss rates, test scale, seed 1",
		IPCTolerance:  0.02,
		MissTolerance: 0.002,
		BaselineIPC:   make(map[string]float64),
		Figure6:       make(map[string]map[string]float64),
	}

	specs := make([]engine.RunSpec, 0, len(workload.Names()))
	for _, w := range workload.Names() {
		specs = append(specs, engine.RunSpec{
			Workload: w, Design: "T4", Budget: prog.Budget32,
			Scale: opts.Scale, PageSize: 4096, Seed: 1,
		})
	}
	results, err := e.RunAll(context.Background(), specs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
		got.BaselineIPC[results[i].Spec.Workload] = round6(results[i].Stats.IPC())
	}

	f6, err := Figure6(context.Background(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range f6.Workloads {
		row := make(map[string]float64, len(f6.Sizes))
		for _, size := range f6.Sizes {
			row[fmt.Sprint(size)] = round6(f6.MissRate[w][size])
		}
		got.Figure6[w] = row
	}
	return got
}

// round6 keeps the fixture diffable: six decimals is far below every
// tolerance in use.
func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

func TestRegressionCorpus(t *testing.T) {
	path := filepath.Join("testdata", "regression.json")
	got := measureRegression(t)

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want regressionCorpus
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt regression corpus: %v", err)
	}

	for w, ref := range want.BaselineIPC {
		cur, ok := got.BaselineIPC[w]
		if !ok {
			t.Errorf("baseline IPC: workload %s missing from the simulator", w)
			continue
		}
		if rel := math.Abs(cur-ref) / ref; rel > want.IPCTolerance {
			t.Errorf("baseline IPC drift on %s: got %.6f, corpus %.6f (%.2f%% > %.2f%% tolerance)",
				w, cur, ref, 100*rel, 100*want.IPCTolerance)
		}
	}
	for w, sizes := range want.Figure6 {
		cur, ok := got.Figure6[w]
		if !ok {
			t.Errorf("figure6: workload %s missing from the simulator", w)
			continue
		}
		for size, ref := range sizes {
			if diff := math.Abs(cur[size] - ref); diff > want.MissTolerance {
				t.Errorf("figure6 miss-rate drift on %s @%s entries: got %.6f, corpus %.6f (|Δ|=%.6f > %.6f)",
					w, size, cur[size], ref, diff, want.MissTolerance)
			}
		}
	}
	// Workloads added to the simulator must be added to the corpus too,
	// so coverage does not silently shrink relative to new code.
	for w := range got.BaselineIPC {
		if _, ok := want.BaselineIPC[w]; !ok {
			t.Errorf("workload %s is not in the regression corpus (run with -update)", w)
		}
	}
}
