package sblock_test

import (
	"fmt"
	"reflect"
	"testing"

	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/prog"
	"hbat/internal/progen"
)

// newPair builds two identical machines from one program and attaches
// the translated engine to the second.
func newPair(t *testing.T, p *prog.Program, pageSize uint64) (*emu.Machine, *emu.Machine, *sblock.Engine) {
	t.Helper()
	ref, err := emu.New(p, pageSize)
	if err != nil {
		t.Fatalf("emu.New ref: %v", err)
	}
	tr, err := emu.New(p, pageSize)
	if err != nil {
		t.Fatalf("emu.New translated: %v", err)
	}
	return ref, tr, sblock.New(tr)
}

// compareState asserts every architecturally observable piece of state
// matches between the interpreted reference and the translated machine:
// registers, PC, halt flag, retirement counts, page-table contents
// (including Ref/Dirty status and frame-allocation order), the frame
// allocator position, walk/fault counters, and memory contents.
func compareState(t *testing.T, ref, got *emu.Machine) {
	t.Helper()
	if ref.Regs != got.Regs {
		for i := range ref.Regs {
			if ref.Regs[i] != got.Regs[i] {
				t.Errorf("reg %d: interpreted %#x, translated %#x", i, ref.Regs[i], got.Regs[i])
			}
		}
	}
	if ref.PC != got.PC {
		t.Errorf("PC: interpreted %#x, translated %#x", ref.PC, got.PC)
	}
	if ref.Halted != got.Halted {
		t.Errorf("Halted: interpreted %v, translated %v", ref.Halted, got.Halted)
	}
	if ref.InstCount != got.InstCount || ref.LoadCount != got.LoadCount ||
		ref.StoreCount != got.StoreCount || ref.BranchCount != got.BranchCount ||
		ref.TakenCount != got.TakenCount {
		t.Errorf("counts: interpreted inst=%d ld=%d st=%d br=%d tk=%d, translated inst=%d ld=%d st=%d br=%d tk=%d",
			ref.InstCount, ref.LoadCount, ref.StoreCount, ref.BranchCount, ref.TakenCount,
			got.InstCount, got.LoadCount, got.StoreCount, got.BranchCount, got.TakenCount)
	}
	if ref.AS.WalkCount != got.AS.WalkCount {
		t.Errorf("WalkCount: interpreted %d, translated %d", ref.AS.WalkCount, got.AS.WalkCount)
	}
	if ref.AS.Faults != got.AS.Faults {
		t.Errorf("Faults: interpreted %d, translated %d", ref.AS.Faults, got.AS.Faults)
	}
	if ref.AS.NextFrame() != got.AS.NextFrame() {
		t.Errorf("NextFrame: interpreted %d, translated %d", ref.AS.NextFrame(), got.AS.NextFrame())
	}
	if rp, gp := ref.AS.ExportPages(), got.AS.ExportPages(); !reflect.DeepEqual(rp, gp) {
		t.Errorf("page tables differ: interpreted %d pages, translated %d pages\n%v\nvs\n%v",
			len(rp), len(gp), rp, gp)
	}
	rf, gf := ref.Mem.ExportFrames(), got.Mem.ExportFrames()
	if len(rf) != len(gf) {
		t.Fatalf("frames: interpreted %d, translated %d", len(rf), len(gf))
	}
	for i := range rf {
		if rf[i].Index != gf[i].Index {
			t.Fatalf("frame %d index: interpreted %d, translated %d", i, rf[i].Index, gf[i].Index)
		}
		if *rf[i].Data != *gf[i].Data {
			t.Errorf("frame %d (index %d) contents differ", i, rf[i].Index)
		}
	}
}

// errString renders an error for exact-match comparison (empty for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDifferentialGenerated locksteps the translated engine against the
// interpreter over generated programs spanning every flavor, both
// register budgets, both page sizes, and budgets that cut execution
// mid-block. Errors (including none) must match byte for byte, and the
// whole machine state must be identical afterwards.
func TestDifferentialGenerated(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	budgets := []uint64{0, 1, 7, 97, 1000}
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			rb := prog.Budget32
			if s%2 == 1 {
				rb = prog.Budget8
			}
			pageSize := uint64(4096)
			if s%3 == 2 {
				pageSize = 8192
			}
			p, err := progen.Generate(uint64(s)*977+5, 120+s*13, rb, progen.Flavor(s)%progen.NumFlavors)
			if err != nil {
				t.Fatalf("gen: %v", err)
			}
			for _, budget := range budgets {
				ref, tr, eng := newPair(t, p, pageSize)
				rerr := ref.Run(budget)
				gerr := eng.Run(budget)
				if errString(rerr) != errString(gerr) {
					t.Fatalf("budget %d: interpreted err %q, translated err %q", budget, errString(rerr), errString(gerr))
				}
				compareState(t, ref, tr)
				if t.Failed() {
					t.Fatalf("state diverged at budget %d", budget)
				}
			}
		})
	}
}

// memRef is one data reference: its address, the referencing
// instruction's index and its direction.
type memRef struct {
	vaddr, idx uint64
	write      bool
}

// refRecorder is a Warmer that records the data references it is handed.
type refRecorder struct{ refs []memRef }

func (r *refRecorder) Block(*sblock.BlockExec) {}

func (r *refRecorder) Ref(vaddr, _ uint64, write bool, idx uint64) {
	r.refs = append(r.refs, memRef{vaddr, idx, write})
}

// recordRefs makes m's OnMemRef hook record every reference the
// interpreter makes, stamped with the instruction's index.
func recordRefs(m *emu.Machine) *[]memRef {
	var refs []memRef
	m.OnMemRef = func(vaddr uint64, write bool) {
		refs = append(refs, memRef{vaddr, m.InstCount, write})
	}
	return &refs
}

// compareRefs fails t at the first reference where a warm run's stream
// departs from the interpreter's.
func compareRefs(t *testing.T, interp, warm []memRef) {
	t.Helper()
	for i := 0; i < len(interp) && i < len(warm); i++ {
		if interp[i] != warm[i] {
			t.Fatalf("ref %d: interpreted %+v, warm %+v", i, interp[i], warm[i])
		}
	}
	if len(interp) != len(warm) {
		t.Fatalf("ref count: interpreted %d, warm %d", len(interp), len(warm))
	}
}

// checkWarm runs p under Warm with limit maxInsts on a fresh machine and
// checks it against the interpreter's run ref, which returned rerr and
// made the references interp: where the interpreter halted or used its
// budget the warm run ends without an error, otherwise with the same
// one; it retires as many instructions; and its references are the
// interpreter's, less a faulting access's, which the interpreter
// reports before the access and a warm run only after it succeeds.
func checkWarm(t *testing.T, p *prog.Program, pageSize, maxInsts uint64, ref *emu.Machine, rerr error, interp []memRef) {
	t.Helper()
	wm, err := emu.New(p, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	var warm refRecorder
	werr := sblock.New(wm).Warm(maxInsts, &warm)
	switch {
	case ref.Halted || maxInsts > 0 && ref.InstCount == maxInsts:
		if werr != nil {
			t.Fatalf("warm run failed with %q where the interpreter stopped cleanly", werr)
		}
	case errString(werr) != errString(rerr):
		t.Fatalf("error mismatch: interpreted %q, warm %q", errString(rerr), errString(werr))
	case len(interp) > 0 && interp[len(interp)-1].idx == ref.InstCount:
		interp = interp[:len(interp)-1]
	}
	compareRefs(t, interp, warm.refs)
	if wm.InstCount != ref.InstCount {
		t.Fatalf("warm run retired %d instructions, interpreter %d", wm.InstCount, ref.InstCount)
	}
}

// TestWarmRefOrder: a warm run reports the same (vaddr, instruction
// index, write) sequence the interpreter's OnMemRef hook sees — the
// contract Figure 6 and trace capture rely on. The machine states are
// not compared: Warm walks each block's text page on entry, so frames
// are allocated in another order.
func TestWarmRefOrder(t *testing.T) {
	p, err := progen.Generate(4242, 200, prog.Budget32, progen.FlavorMem)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	ref, tr, eng := newPair(t, p, 4096)
	interp := recordRefs(ref)
	if err := ref.Run(0); err != nil {
		t.Fatalf("interpreted: %v", err)
	}
	var warm refRecorder
	if err := eng.Warm(0, &warm); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if len(*interp) == 0 {
		t.Fatal("no memory references observed")
	}
	compareRefs(t, *interp, warm.refs)
	if !tr.Halted || tr.InstCount != ref.InstCount {
		t.Fatalf("warm run ended halted=%v after %d instructions, interpreter after %d", tr.Halted, tr.InstCount, ref.InstCount)
	}
}

// TestDifferentialFault checks that translation faults surface with the
// interpreter's exact error text and leave the machine in the
// interpreter's exact post-fault state (PC at the faulting
// instruction, prior work retired).
func TestDifferentialFault(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *prog.Builder)
	}{
		{"unmapped load", func(b *prog.Builder) {
			r := b.IVar("r")
			b.Li(r, 0x7000_0000)
			b.Ld(r, r, 0)
			b.Halt()
		}},
		{"unmapped store", func(b *prog.Builder) {
			r := b.IVar("r")
			b.Li(r, 0x7000_0000)
			b.Sd(r, r, 8)
			b.Halt()
		}},
		{"store to text", func(b *prog.Builder) {
			r := b.IVar("r")
			b.Li(r, int64(prog.CodeBase))
			b.Sd(r, r, 0)
			b.Halt()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := prog.NewBuilder(tc.name)
			tc.build(b)
			p, err := b.Finalize(prog.Budget32)
			if err != nil {
				t.Fatalf("finalize: %v", err)
			}
			ref, tr, eng := newPair(t, p, 4096)
			interp := recordRefs(ref)
			rerr := ref.Run(0)
			gerr := eng.Run(0)
			if rerr == nil {
				t.Fatal("expected a fault")
			}
			if errString(rerr) != errString(gerr) {
				t.Fatalf("interpreted err %q, translated err %q", errString(rerr), errString(gerr))
			}
			compareState(t, ref, tr)
			checkWarm(t, p, 4096, 0, ref, rerr, *interp)
		})
	}
}

// TestDifferentialOutsideText checks the lazily-reported bad-PC error:
// jumping out of the text segment fails on the next dispatch with the
// interpreter's message.
func TestDifferentialOutsideText(t *testing.T) {
	b := prog.NewBuilder("outside")
	r := b.IVar("r")
	b.Li(r, int64(prog.DataBase))
	b.Jr(r)
	p, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	ref, tr, eng := newPair(t, p, 4096)
	rerr := ref.Run(0)
	gerr := eng.Run(0)
	if rerr == nil {
		t.Fatal("expected an error")
	}
	if errString(rerr) != errString(gerr) {
		t.Fatalf("interpreted err %q, translated err %q", errString(rerr), errString(gerr))
	}
	compareState(t, ref, tr)
}

// TestResumeAfterBudget checks that a budget-stopped translated machine
// resumes mid-block and still converges with the interpreter — the
// checkpoint builder depends on stopping at an exact instruction count.
func TestResumeAfterBudget(t *testing.T) {
	p, err := progen.Generate(99, 150, prog.Budget32, progen.FlavorBranchy)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	ref, tr, eng := newPair(t, p, 4096)
	if err := ref.Run(0); err != nil {
		t.Fatalf("interpreted: %v", err)
	}
	// Drive the translated machine in awkward increments.
	for budget := uint64(13); !tr.Halted; budget += 13 {
		if err := eng.Run(budget); err != nil {
			if tr.Halted {
				break
			}
			if errString(err) == fmt.Sprintf("emu: instruction budget %d exhausted at pc 0x%x", budget, tr.PC) {
				continue
			}
			t.Fatalf("translated: %v", err)
		}
	}
	compareState(t, ref, tr)
}
