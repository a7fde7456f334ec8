package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"hbat/internal/cpu"
	"hbat/internal/engine"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

// The roads into the cycle core that Figure 5's grid does not take:
// each variant runs variantDesigns x variantWorkloads at test scale
// with one Config switch thrown. "longlat" stretches the functional
// unit, data-cache miss and walk latencies until operands, store data
// and completions fall due further ahead than the scheduler's wake
// wheel reaches; "zerolat" is the other edge, nothing to wait for.
var (
	variantDesigns   = []string{"T4", "T1", "M8", "P8", "I4", "PB1", "I4/PB"}
	variantWorkloads = []string{"compress", "gcc", "tomcatv"}
	variants         = []struct {
		name   string
		budget prog.RegBudget
		tweak  func(*cpu.Config)
	}{
		{"baseline", prog.Budget32, func(*cpu.Config) {}},
		{"inorder", prog.Budget32, func(c *cpu.Config) { c.InOrder = true }},
		{"regs8", prog.Budget8, func(*cpu.Config) {}},
		{"vcache", prog.Budget32, func(c *cpu.Config) { c.VirtualCache = true }},
		{"ctxswitch", prog.Budget32, func(c *cpu.Config) { c.FlushTLBEvery = 2000 }},
		{"longlat", prog.Budget32, func(c *cpu.Config) {
			c.IntMultLat *= 25
			c.IntDivLat *= 25
			c.FPAddLat *= 25
			c.FPMultLat *= 25
			c.FPDivLat *= 25
			c.DCache.MissLatency *= 25
			c.TLBMissLatency *= 10
		}},
		// Results available the cycle their producer issues: consumers
		// become ready, and store data arrives, for a cycle already
		// under way.
		{"zerolat", prog.Budget32, func(c *cpu.Config) { c.IntALULat = 0 }},
	}
)

// variantDigest is the SHA-256 over each run's canonical artifact and
// its metrics registry (replay causes, the port queue-depth and
// translation-latency histograms), designs outer, workloads inner.
func variantDigest(t *testing.T, budget prog.RegBudget, tweak func(*cpu.Config)) string {
	t.Helper()
	h := sha256.New()
	for _, d := range variantDesigns {
		for _, name := range variantWorkloads {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Build(budget, workload.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cpu.DefaultConfig()
			tweak(&cfg)
			m, err := cpu.NewWithDesign(p, cfg, d)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatalf("%s/%s: %v", name, d, err)
			}
			h.Write(engine.Artifact(engine.Wire(engine.RunResult{
				Spec: engine.RunSpec{
					Workload: name, Design: d, Budget: budget, Scale: workload.ScaleTest,
					PageSize: cfg.PageSize, InOrder: cfg.InOrder, Seed: cfg.Seed,
					VirtualCache: cfg.VirtualCache, ContextSwitchEvery: cfg.FlushTLBEvery,
				},
				Stats: *m.Stats(),
				TLB:   *m.DTLB.Stats(),
			})))
			metrics, err := json.Marshal(m.Metrics())
			if err != nil {
				t.Fatal(err)
			}
			h.Write(metrics)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestVariantDigest pins every simulated outcome of the variant runs,
// bit for bit (testdata/variant_digest.json, generated at ISSUE 19's
// parent commit, before the scheduler stopped polling). Like
// grid_digest.json it moves only with a deliberate timing-model change:
//
//	go test ./internal/harness/ -run TestVariantDigest -update
func TestVariantDigest(t *testing.T) {
	got := make(map[string]string)
	for _, v := range variants {
		got[v.name] = variantDigest(t, v.budget, v.tweak)
	}
	checkDigests(t, "variant_digest.json", got)
}
