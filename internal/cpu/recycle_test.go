package cpu_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hbat/internal/ckpt"
	"hbat/internal/cpu"
	"hbat/internal/emu"
	"hbat/internal/engine"
	"hbat/internal/isa"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// recycleSpec is one run: a workload at a scale, a design, and the
// config switches thrown on top of Table 1.
type recycleSpec struct {
	name     string
	workload string
	scale    workload.Scale
	design   string
	tweak    func(*cpu.Config)
}

// outcome is everything a run's caller can read back: the statistics,
// the metrics snapshot, the artifact the engine would store, and the
// final architectural state.
type outcome struct {
	stats    cpu.Stats
	tlb      tlb.Stats
	metrics  []byte
	artifact []byte
	regs     [isa.NumRegs]uint64
	memory   [sha256.Size]byte
}

// recycleRig builds each program and checkpoint once.
type recycleRig struct {
	mu    sync.Mutex
	progs map[string]*prog.Program
}

func (r *recycleRig) program(t *testing.T, name string, scale workload.Scale) *prog.Program {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	key := fmt.Sprintf("%s/%d", name, scale)
	if p := r.progs[key]; p != nil {
		return p
	}
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, scale)
	if err != nil {
		t.Fatal(err)
	}
	if r.progs == nil {
		r.progs = make(map[string]*prog.Program)
	}
	r.progs[key] = p
	return p
}

// checkpoint builds p's checkpoint at pct % of its functional length.
func checkpointAt(t *testing.T, p *prog.Program, pct uint64) *ckpt.Checkpoint {
	t.Helper()
	em, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := em.Run(0); err != nil {
		t.Fatal(err)
	}
	d := cpu.DefaultConfig()
	c, err := ckpt.Build(context.Background(), p, ckpt.BuildConfig{
		PageSize: 4096, FastForward: em.InstCount * pct / 100,
		ICache: d.ICache, DCache: d.DCache, Branch: d.Branch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// restoring makes a spec's config restore c.
func restoring(c *ckpt.Checkpoint) func(*cpu.Config) {
	return func(cfg *cpu.Config) {
		cfg.FastForward = c.FastForward
		cfg.Checkpoint = c
	}
}

// run builds s's machine, runs it to the end and reads its outcome.
func (r *recycleRig) run(t *testing.T, s recycleSpec) (*cpu.Machine, outcome) {
	t.Helper()
	p := r.program(t, s.workload, s.scale)
	cfg := cpu.DefaultConfig()
	if s.tweak != nil {
		s.tweak(&cfg)
	}
	m, err := cpu.NewWithDesign(p, cfg, s.design)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	o := outcome{stats: *m.Stats(), tlb: *m.DTLB.Stats()}
	res := engine.RunResult{
		Spec: engine.RunSpec{
			Workload: s.workload, Design: s.design, Budget: prog.Budget32, Scale: s.scale,
			PageSize: cfg.PageSize, InOrder: cfg.InOrder, Seed: cfg.Seed, MaxInsts: cfg.MaxInsts,
			VirtualCache: cfg.VirtualCache, ContextSwitchEvery: cfg.FlushTLBEvery,
			Lockstep: cfg.Lockstep, FastForward: cfg.FastForward,
		},
		Stats: o.stats,
		TLB:   o.tlb,
	}
	if o.metrics, err = json.Marshal(res.Metrics()); err != nil {
		t.Fatal(err)
	}
	o.artifact = engine.Artifact(engine.Wire(res))
	for i := range o.regs {
		o.regs[i] = m.Reg(isa.Reg(i))
	}
	h := sha256.New()
	page := make([]byte, cfg.PageSize)
	for _, pte := range m.AS.ExportPages() {
		m.Mem.Read(pte.PFN*cfg.PageSize, page)
		h.Write(binary.LittleEndian.AppendUint64(nil, pte.VPN))
		h.Write(page)
	}
	h.Sum(o.memory[:0])
	return m, o
}

// diff names the first part of two outcomes that differs ("" if none).
func (o outcome) diff(w outcome) string {
	switch {
	case !reflect.DeepEqual(o.stats, w.stats):
		return fmt.Sprintf("cpu.Stats %+v, want %+v", o.stats, w.stats)
	case o.tlb != w.tlb:
		return fmt.Sprintf("tlb.Stats %+v, want %+v", o.tlb, w.tlb)
	case !bytes.Equal(o.metrics, w.metrics):
		return "metrics snapshot differs"
	case !bytes.Equal(o.artifact, w.artifact):
		return "artifact bytes differ"
	case o.regs != w.regs:
		return "final registers differ"
	case o.memory != w.memory:
		return "final memory differs"
	}
	return ""
}

// TestRecycledEqualsFresh: a machine New builds from a released one
// runs exactly as a machine built from nothing. Each spec runs on a
// fresh machine, which is released; a different spec — another design,
// workload, geometry or config, one of them a full-scale window
// restored 99 % deep and one stopped mid-flight — runs on the recycled
// machine and is released in turn; then the first spec runs again on
// that machine, and every observable outcome must match the fresh
// run's. The again-run must also have got back what the machine keeps:
// the first run's translation device, reset, and the address space the
// other run released.
func TestRecycledEqualsFresh(t *testing.T) {
	var r recycleRig
	const test, full = workload.ScaleTest, workload.ScaleFull
	half := checkpointAt(t, r.program(t, "compress", test), 50)
	deep := checkpointAt(t, r.program(t, "xlisp", full), 99)

	var specs []recycleSpec
	for _, d := range tlb.DesignOrder {
		specs = append(specs, recycleSpec{name: d, workload: "compress", scale: test, design: d})
	}
	specs = append(specs,
		recycleSpec{"in-order", "gcc", test, "I4", func(c *cpu.Config) { c.InOrder = true }},
		recycleSpec{"virtual-cache", "tomcatv", test, "M8", func(c *cpu.Config) { c.VirtualCache = true }},
		recycleSpec{"context-switch", "compress", test, "PB1", func(c *cpu.Config) { c.FlushTLBEvery = 2000 }},
		recycleSpec{"lockstep", "tomcatv", test, "I4/PB", func(c *cpu.Config) { c.Lockstep = true }},
		recycleSpec{"restore", "compress", test, "X4", restoring(half)},
	)
	others := []recycleSpec{
		{"other/full-ffwd99", "xlisp", full, "M4", restoring(deep)},
		{"other/gcc-cut", "gcc", test, "I8", func(c *cpu.Config) { c.MaxInsts = 5000 }},
		{"other/small-core", "tomcatv", test, "P8", func(c *cpu.Config) {
			c.ROBSize, c.FetchQueue = 32, 8
			c.DCache.SizeBytes, c.ICache.Assoc = 8<<10, 4
			c.Branch.PHTEntries = 1024
		}},
		{"other/lockstep-restore", "compress", test, "T1", func(c *cpu.Config) {
			restoring(half)(c)
			c.Lockstep = true
		}},
	}

	for i, s := range specs {
		other := others[i%len(others)]
		t.Run(s.name, func(t *testing.T) {
			cpu.DrainReleased()
			m, want := r.run(t, s)
			ranS, dev := m, m.DTLB // the machine that last ran s, and its device
			m.Release()
			for try := 0; ; try++ {
				m, _ := r.run(t, other)
				as := m.AS
				m.Release()
				again, got := r.run(t, s)
				if again != m || m != ranS {
					// The pool may drop a machine (a collection, or the
					// goroutine moving to another P): go round again.
					ranS, dev = again, again.DTLB
					again.Release()
					if try < 10 {
						continue
					}
					t.Fatal("New never started from the released machine")
				}
				switch {
				case again.DTLB != dev:
					t.Fatalf("after %s, the recycled machine built a new %s device instead of resetting its own", other.name, s.design)
				case again.AS != as:
					t.Fatalf("after %s, the recycled machine built a new address space", other.name)
				}
				if d := got.diff(want); d != "" {
					t.Fatalf("after %s, the recycled machine's run differs: %s", other.name, d)
				}
				again.Release()
				return
			}
		})
	}
}

// TestConcurrentRecycling: machines built, run and released on several
// goroutines at once each run exactly as a fresh machine would. Under
// -race this also checks that a released machine is never shared.
func TestConcurrentRecycling(t *testing.T) {
	var r recycleRig
	specs := []recycleSpec{
		{"T4", "compress", workload.ScaleTest, "T4", nil},
		{"I8", "gcc", workload.ScaleTest, "I8", nil},
		{"M8-inorder", "tomcatv", workload.ScaleTest, "M8", func(c *cpu.Config) { c.InOrder = true }},
		{"PB2-small", "compress", workload.ScaleTest, "PB2", func(c *cpu.Config) { c.ROBSize = 16 }},
	}
	want := make([]outcome, len(specs))
	cpu.DrainReleased()
	for i, s := range specs {
		_, want[i] = r.run(t, s)
	}
	workers := max(2, runtime.GOMAXPROCS(0))
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(specs); k++ {
				i := (w + k) % len(specs)
				m, got := r.run(t, specs[i])
				m.Release()
				if d := got.diff(want[i]); d != "" {
					t.Errorf("worker %d, %s: %s", w, specs[i].name, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}
