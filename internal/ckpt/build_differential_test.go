package ckpt

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"hbat/internal/cache"
	"hbat/internal/emu"
	"hbat/internal/isa"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/vm"
	"hbat/internal/workload"
)

// buildInterpreted is the reference warm loop Build is held to: the
// same warming state as Build's, advanced by one emu.Step per
// instruction, warming the icache on the fetch path, the dcache and
// warm stream via the OnMemRef hook, and the predictor on resolved
// control flow.
func buildInterpreted(ctx context.Context, p *prog.Program, cfg BuildConfig) (*buildState, error) {
	bs, err := newBuildState(p, cfg)
	if err != nil {
		return nil, err
	}
	em, n := bs.em, bs.n
	// Translating here interleaves demand allocation identically with
	// the emulator's own access, which finds the PTE already mapped, so
	// the checkpointed page table is exactly what the functional phase
	// alone would have produced.
	em.OnMemRef = func(vaddr uint64, write bool) {
		perm := vm.PermRead
		if write {
			perm = vm.PermWrite
		}
		paddr, terr := em.AS.Translate(vaddr, perm)
		if terr != nil {
			return // the emulator's own access will surface the fault
		}
		bs.dc.WarmAccess(paddr, write, bs.stamp(em.InstCount))
		bs.notePage(paddr, vaddr, write, bs.warmSeq)
		bs.warmSeq++
	}
	defer func() { em.OnMemRef = nil }()

	for em.InstCount < n {
		if em.InstCount%4096 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("ckpt: build interrupted: %w", cerr)
			}
		}
		if em.Halted {
			return nil, fmt.Errorf("%w: halted after %d of %d instructions",
				ErrShortProgram, em.InstCount, n)
		}

		pcBefore := em.PC
		in := em.Prog.InstAt(pcBefore)
		if in == nil {
			return nil, fmt.Errorf("ckpt: PC 0x%x outside text segment", pcBefore)
		}
		// Warm the instruction cache along the fetch path. Walking (not
		// probing) demand-allocates text pages exactly as the timed
		// machine's fetch stage does, keeping frame allocation in step.
		if pte, werr := em.AS.Walk(em.AS.VPN(pcBefore)); werr == nil {
			paddr := pte.PFN<<em.AS.PageBits() | em.AS.PageOffset(pcBefore)
			bs.ic.WarmAccess(paddr, false, bs.stamp(em.InstCount))
		}

		// The outcome, not the next PC: a taken branch may target the
		// next instruction.
		taken := in.Class() == isa.ClassBranch && isa.BranchTaken(in, em.Regs[in.Rs], em.Regs[in.Rt])
		if serr := em.Step(); serr != nil {
			return nil, fmt.Errorf("ckpt: functional phase: %w", serr)
		}

		// Train the branch predictor on the resolved control flow.
		switch in.Class() {
		case isa.ClassBranch:
			bs.pred.WarmCond(pcBefore, taken)
			if taken {
				bs.pred.UpdateTarget(pcBefore, em.PC)
			}
		case isa.ClassJump:
			bs.pred.UpdateTarget(pcBefore, em.PC)
		}
	}
	if em.Halted {
		return nil, fmt.Errorf("%w: halted exactly at the fast-forward point (%d instructions)",
			ErrShortProgram, n)
	}
	return bs, nil
}

// TestBuildEnginesByteIdentical is the headline differential battery
// for Build's superblock-translated warm-up: over every workload in the
// registry, at representative fast-forward budgets, Build and the
// reference interpreter (buildInterpreted) must produce byte-identical
// checkpoints — same architectural state, same page table and frame
// images, same warmed tag arrays and predictor, same WarmRef stream in
// the same order. Comparing through Encode covers every field at once
// and pins the contract the two-phase methodology rests on: the warmed
// measurement window is what executing the skipped prefix one
// instruction at a time would have left.
func TestBuildEnginesByteIdentical(t *testing.T) {
	budgets := []uint64{1, 500, 5_000}
	if testing.Short() {
		budgets = []uint64{500}
	}
	for _, w := range progen.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p, err := w.Build(prog.Budget32, workload.ScaleTest)
			if err != nil {
				t.Fatalf("build workload: %v", err)
			}
			for _, ff := range budgets {
				cfg := testBuildConfig(ff)
				want, ierr := buildInterpreted(context.Background(), p, cfg)
				got, terr := Build(context.Background(), p, cfg)
				if (ierr == nil) != (terr == nil) || (ierr != nil && ierr.Error() != terr.Error()) {
					t.Fatalf("ff %d: interpreted err %v, Build err %v", ff, ierr, terr)
				}
				if ierr != nil {
					continue // both failed identically (e.g. short program)
				}
				compareCheckpoints(t, ff, want.snapshot(cfg), got)
			}
		})
	}

	// The translated path's two exact cuts — deferred I-cache hits and
	// same-line data runs across blocks — under conflict misses every
	// few blocks: the eager path and its epoch bumps must run, and
	// still agree byte for byte. Direct-mapped sets keep only the last
	// line; two ways also pin where each miss places its line, which
	// depends on the stamps every earlier hit left.
	// A write-through D-cache never holds a dirty line, so a run's OR of
	// write bits must not reach the tag array either: a read miss and a
	// write hit to one line collapse to one clean write miss.
	for _, c := range []struct {
		name string
		geom func(BuildConfig) BuildConfig
	}{
		{"1-way", func(cfg BuildConfig) BuildConfig { return tinyCaches(cfg, 1) }},
		{"2-way", func(cfg BuildConfig) BuildConfig { return tinyCaches(cfg, 2) }},
		{"write-through", func(cfg BuildConfig) BuildConfig { return writeThrough(tinyCaches(cfg, 2)) }},
	} {
		c := c
		t.Run("tiny-caches/"+c.name, func(t *testing.T) {
			t.Parallel()
			var deferred, eager uint64
			for _, w := range progen.Workloads() {
				p, err := w.Build(prog.Budget32, workload.ScaleTest)
				if err != nil {
					t.Fatalf("build workload: %v", err)
				}
				for _, ff := range []uint64{500, depth99(t, p)} {
					bs := buildBoth(t, p, c.geom(testBuildConfig(ff)))
					deferred += bs.fetchDeferred
					eager += bs.fetchEager
				}
			}
			if eager == 0 || deferred == 0 {
				t.Errorf("%d whole-block fetches deferred, %d eager; want both paths taken", deferred, eager)
			}
		})
	}

	// At full scale, 99 % deep (the depth the ffwd-99 plan builds), and
	// on the default geometry nearly every whole-block fetch must take
	// the deferred path: that is the speed the translated path exists
	// for.
	for _, name := range []string{"compress", "xlisp"} {
		name := name
		t.Run("full99/"+name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("full-scale builds")
			}
			t.Parallel()
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Build(prog.Budget32, workload.ScaleFull)
			if err != nil {
				t.Fatalf("build workload: %v", err)
			}
			bs := buildBoth(t, p, testBuildConfig(depth99(t, p)))
			if total := bs.fetchDeferred + bs.fetchEager; bs.fetchDeferred*100 < total*99 {
				t.Errorf("%d of %d whole-block fetches deferred, want >= 99 %%", bs.fetchDeferred, total)
			}
		})
	}

	// Stores into the text segment: every one invalidates the page's
	// blocks, and the next instruction — a load, then a branch — runs
	// on the interpreter fallback, whose fetch, data reference and
	// control outcome reach the warm sink through the same calls.
	t.Run("store-to-code", func(t *testing.T) {
		t.Parallel()
		p := storeToCodeProgram()
		for ff := uint64(1); ff <= 24; ff++ {
			buildBoth(t, p, testBuildConfig(ff))
			buildBoth(t, p, tinyCaches(testBuildConfig(ff), 1))
		}
		buildBoth(t, p, testBuildConfig(1_000))
		buildBoth(t, p, tinyCaches(testBuildConfig(1_000), 1))
	})
}

// tinyCaches gives cfg a conflict-forcing geometry: I- and D-caches of
// a few hundred bytes with the given associativity, so I-cache misses
// come every few blocks and data runs keep changing lines.
func tinyCaches(cfg BuildConfig, ways int) BuildConfig {
	cfg.ICache = cache.Config{Name: "il1", SizeBytes: 256, Assoc: ways, BlockBytes: 16, MissLatency: 6, Ports: 1}
	cfg.DCache = cache.Config{Name: "dl1", SizeBytes: 512, Assoc: ways, BlockBytes: 64, MissLatency: 6, Ports: 4, WriteBack: true}
	return cfg
}

// writeThrough makes cfg's D-cache write-through.
func writeThrough(cfg BuildConfig) BuildConfig {
	cfg.DCache.WriteBack = false
	return cfg
}

// depth99 is 99 % of p's functional instruction count.
func depth99(t *testing.T, p *prog.Program) uint64 {
	t.Helper()
	return mustRun(t, p).InstCount * 99 / 100
}

// buildBoth builds p under cfg with Build's translated warm-up and the
// reference interpreter, requires the same error or byte-identical
// checkpoints, and returns the translated warmed state (nil when both
// failed).
func buildBoth(t testing.TB, p *prog.Program, cfg BuildConfig) *buildState {
	t.Helper()
	want, ierr := buildInterpreted(context.Background(), p, cfg)
	got, terr := build(context.Background(), p, cfg)
	if (ierr == nil) != (terr == nil) || (ierr != nil && ierr.Error() != terr.Error()) {
		t.Fatalf("ff %d: interpreted err %v, translated err %v", cfg.FastForward, ierr, terr)
	}
	if ierr != nil {
		return nil
	}
	compareCheckpoints(t, cfg.FastForward, want.snapshot(cfg), got.snapshot(cfg))
	return got
}

// storeToCodeProgram is an endless loop over a read-write-execute text
// segment (r8 = CodeBase, r10 = DataBase) that stores into its own code
// twice per iteration; the instruction after each store is a load or
// the loop's branch.
func storeToCodeProgram() *prog.Program {
	const r8, r9, r10, r11 = isa.Reg(8), isa.Reg(9), isa.Reg(10), isa.Reg(11)
	code := []isa.Inst{
		{Op: isa.Addi, Rd: r9, Rs: r9, Imm: 1},
		{Op: isa.Sw, Mode: isa.AMImm, Rd: r9, Rs: r8, Imm: 28},
		{Op: isa.Ld, Mode: isa.AMImm, Rd: r11, Rs: r10, Imm: 0},
		{Op: isa.Sd, Mode: isa.AMImm, Rd: r9, Rs: r10, Imm: 8},
		{Op: isa.Addi, Rd: r11, Rs: r11, Imm: 3},
		{Op: isa.Sw, Mode: isa.AMImm, Rd: r11, Rs: r8, Imm: 24},
		{Op: isa.Bgtz, Rs: r9, Target: prog.CodeBase},
		{Op: isa.Halt},
	}
	return &prog.Program{
		Name:  "store-to-code",
		Code:  code,
		Entry: prog.CodeBase,
		Regions: []vm.Region{
			{Name: "text", Base: prog.CodeBase, Size: 4 << 20, Perm: vm.PermRead | vm.PermWrite | vm.PermExec},
			{Name: "data", Base: prog.DataBase, Size: prog.DataSize, Perm: vm.PermRW},
		},
		InitRegs: map[isa.Reg]uint64{8: prog.CodeBase, 10: prog.DataBase},
	}
}

// compareCheckpoints reports field-level detail before failing on the
// byte comparison, so a divergence names the state that moved instead
// of just "bytes differ".
func compareCheckpoints(t testing.TB, ff uint64, want, got *Checkpoint) {
	t.Helper()
	if want.PC != got.PC || want.Regs != got.Regs {
		t.Errorf("ff %d: architectural state differs: PC %#x/%#x", ff, want.PC, got.PC)
	}
	if want.InstCount != got.InstCount || want.LoadCount != got.LoadCount ||
		want.StoreCount != got.StoreCount || want.BranchCount != got.BranchCount ||
		want.TakenCount != got.TakenCount {
		t.Errorf("ff %d: counts differ: inst %d/%d ld %d/%d st %d/%d br %d/%d tk %d/%d",
			ff, want.InstCount, got.InstCount, want.LoadCount, got.LoadCount,
			want.StoreCount, got.StoreCount, want.BranchCount, got.BranchCount,
			want.TakenCount, got.TakenCount)
	}
	if want.NextFrame != got.NextFrame || len(want.Pages) != len(got.Pages) {
		t.Errorf("ff %d: page table differs: %d/%d pages, next frame %d/%d",
			ff, len(want.Pages), len(got.Pages), want.NextFrame, got.NextFrame)
	} else {
		for i := range want.Pages {
			if want.Pages[i] != got.Pages[i] {
				t.Errorf("ff %d: page %d differs: %+v vs %+v", ff, i, want.Pages[i], got.Pages[i])
				break
			}
		}
	}
	if len(want.WarmRefs) != len(got.WarmRefs) {
		t.Errorf("ff %d: warm stream length %d/%d", ff, len(want.WarmRefs), len(got.WarmRefs))
	} else {
		for i := range want.WarmRefs {
			if want.WarmRefs[i] != got.WarmRefs[i] {
				t.Errorf("ff %d: warm ref %d differs: %+v vs %+v (order matters)",
					ff, i, want.WarmRefs[i], got.WarmRefs[i])
				break
			}
		}
	}
	wb, gb := want.Encode(), got.Encode()
	if !bytes.Equal(wb, gb) {
		for i := 0; i < len(wb) && i < len(gb); i++ {
			if wb[i] != gb[i] {
				t.Fatalf("ff %d: checkpoints diverge at byte %d of %d/%d", ff, i, len(wb), len(gb))
			}
		}
		t.Fatalf("ff %d: checkpoint sizes differ: %d vs %d bytes", ff, len(wb), len(gb))
	}
}

// TestBuildEngineErrors pins Build's error surface to the reference
// interpreter's: the short-program sentinel and cancellation report
// identically.
func TestBuildEngineErrors(t *testing.T) {
	p, err := progen.Workloads()[0].Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}

	// Fast-forward far past the program's halt: both must report
	// ErrShortProgram with the same instruction count.
	cfg := testBuildConfig(1 << 40)
	_, ierr := buildInterpreted(context.Background(), p, cfg)
	_, terr := Build(context.Background(), p, cfg)
	if ierr == nil || terr == nil || ierr.Error() != terr.Error() {
		t.Errorf("short-program errors differ:\n  interpreted: %v\n  Build:       %v", ierr, terr)
	}

	// A cancelled context stops both with the interrupt wrapper.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want := fmt.Sprintf("ckpt: build interrupted: %v", context.Canceled)
	for name, build := range map[string]func() error{
		"interpreted": func() error { _, err := buildInterpreted(ctx, p, cfg); return err },
		"Build":       func() error { _, err := Build(ctx, p, cfg); return err },
	} {
		if cerr := build(); cerr == nil || cerr.Error() != want {
			t.Errorf("%s: cancelled build error = %v, want %q", name, cerr, want)
		}
	}
}

// FuzzBuildEngines builds generated programs with Build and with the
// reference interpreter and requires byte-identical checkpoints (or the
// same error). The
// program comes from FuzzSuperblockExec's generator inputs — seed,
// length, flavor, and flags (1 = Budget8, 2 = 8K pages) — the depth is
// taken modulo one more than the program's functional length (so the
// exact-halt and past-halt errors are reached too), and geom picks the
// baseline caches or a tiny direct-mapped or two-way geometry
// (geom%3 = 0, 1, 2), except that geom%6 = 3 is the two-way geometry
// with a write-through D-cache. The seed corpus under testdata/fuzz
// covers each flavor, flag and geometry; seed_epoch_2way is an input
// that fails if an I-cache miss does not end every block's deferral.
func FuzzBuildEngines(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, flavor, flags uint8, depth uint32, geom uint8) {
		budget := prog.Budget32
		if flags&1 != 0 {
			budget = prog.Budget8
		}
		pageSize := uint64(4096)
		if flags&2 != 0 {
			pageSize = 8192
		}
		p, err := progen.Generate(seed, 20+int(n)%400, budget, flavor%progen.NumFlavors)
		if err != nil {
			t.Fatalf("gen: %v", err)
		}
		em, err := emu.New(p, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := em.Run(0); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		cfg := testBuildConfig(1 + uint64(depth)%(em.InstCount+1))
		cfg.PageSize = pageSize
		switch {
		case geom%6 == 3:
			cfg = writeThrough(tinyCaches(cfg, 2))
		case geom%3 > 0:
			cfg = tinyCaches(cfg, int(geom%3))
		}
		buildBoth(t, p, cfg)
	})
}
