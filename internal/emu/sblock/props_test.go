package sblock

import (
	"context"
	"testing"
	"time"

	"hbat/internal/emu"
	"hbat/internal/isa"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/vm"
)

func isCtrl(op isa.Op) bool {
	switch op {
	case isa.Beq, isa.Bne, isa.Blez, isa.Bgtz, isa.Bltz, isa.Bgez,
		isa.J, isa.Jal, isa.Jr, isa.Jalr, isa.Halt:
		return true
	}
	return false
}

// TestBlockInvariants runs branchy generated programs to steady state
// and then audits every cached superblock against the structural
// invariants the checkpoint builder's warm sink depends on:
//
//   - no block interior is a static branch target (blocks end AT
//     targets, so warm-up sees the same block boundaries the
//     interpreter's control flow would);
//   - no block spans a page boundary (one entry walk covers the whole
//     fetch stream of a block execution, and text pages demand-allocate
//     in the interpreter's order);
//   - block bodies contain no control flow — only the terminator may
//     transfer;
//   - block length is bounded by the page's instruction capacity and
//     stays under pollEvery, so the chain step's poll, made at the
//     first block boundary after pollEvery instructions, is at most
//     one block late.
func TestBlockInvariants(t *testing.T) {
	for _, pageSize := range []uint64{4096, 8192} {
		for seed := uint64(0); seed < 6; seed++ {
			p, err := progen.Generate(seed*31+7, 250, prog.Budget32, progen.FlavorBranchy)
			if err != nil {
				t.Fatalf("gen: %v", err)
			}
			m, err := emu.New(p, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			e := New(m)
			if err := e.Run(0); err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(e.blocks) == 0 {
				t.Fatal("no blocks cached")
			}
			maxInsts := pageSize / isa.InstBytes
			for pc0, b := range e.blocks {
				if pc0 != b.pc0 {
					t.Fatalf("block keyed at %#x has pc0 %#x", pc0, b.pc0)
				}
				if b.nInsts == 0 {
					t.Fatalf("block %#x is empty", pc0)
				}
				if b.nInsts > maxInsts {
					t.Errorf("block %#x: %d insts exceeds page capacity %d", pc0, b.nInsts, maxInsts)
				}
				if b.nInsts >= pollEvery {
					t.Errorf("block %#x: %d insts reaches the %d-inst poll interval", pc0, b.nInsts, pollEvery)
				}
				if (b.end-1)>>e.pageBits != pc0>>e.pageBits {
					t.Errorf("block %#x..%#x spans a %d-byte page boundary", pc0, b.end, pageSize)
				}
				for k := uint64(1); k < b.nInsts; k++ {
					if _, hit := e.targets[pc0+isa.InstBytes*k]; hit {
						t.Errorf("block %#x: interior pc %#x is a static branch target", pc0, pc0+isa.InstBytes*k)
					}
				}
				for i := range b.body {
					if isCtrl(b.body[i].op) {
						t.Errorf("block %#x: body[%d] is control flow (%v)", pc0, i, b.body[i].op)
					}
				}
			}
		}
	}
}

// writableTextProgram hand-builds a program whose text region is
// mapped read-write-execute so a store into the code segment is legal
// and must trigger block invalidation rather than a protection fault.
// r8 holds CodeBase; the Sw at index 1 overwrites the (already
// decoded, hence immutable) halt slot's bytes in simulated memory.
func writableTextProgram() *prog.Program {
	const r8, r9 = isa.Reg(8), isa.Reg(9)
	code := []isa.Inst{
		{Op: isa.Addi, Rd: r9, Rs: isa.Zero, Imm: 1},
		{Op: isa.Sw, Mode: isa.AMImm, Rd: r9, Rs: r8, Imm: 24},
		{Op: isa.Addi, Rd: r9, Rs: r9, Imm: 2},
		{Op: isa.Addi, Rd: r9, Rs: r9, Imm: 4},
		{Op: isa.Addi, Rd: r9, Rs: r9, Imm: 8},
		{Op: isa.Addi, Rd: r9, Rs: r9, Imm: 16},
		{Op: isa.Halt},
	}
	return &prog.Program{
		Name:  "writable-text",
		Code:  code,
		Entry: prog.CodeBase,
		Regions: []vm.Region{
			{Name: "text", Base: prog.CodeBase, Size: 4 << 20, Perm: vm.PermRead | vm.PermWrite | vm.PermExec},
			{Name: "data", Base: prog.DataBase, Size: prog.DataSize, Perm: vm.PermRW},
		},
		InitRegs: map[isa.Reg]uint64{8: prog.CodeBase},
	}
}

// TestStoreToCodeInvalidates pins the self-modifying-store contract: a
// store that lands in the text segment discards every cached block on
// the written page, the next instruction is delegated to the
// interpreter, and execution then re-translates and converges with a
// pure emu.Machine run of the same program.
func TestStoreToCodeInvalidates(t *testing.T) {
	p := writableTextProgram()
	ref, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(0); err != nil {
		t.Fatalf("interpreted: %v", err)
	}
	m, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m)
	if err := e.Run(0); err != nil {
		t.Fatalf("translated: %v", err)
	}
	st := e.Stats()
	if st.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", st.Invalidations)
	}
	if st.InterpSteps != 1 {
		t.Errorf("InterpSteps = %d, want 1 (one instruction delegated after invalidation)", st.InterpSteps)
	}
	if st.BlocksBuilt < 2 {
		t.Errorf("BlocksBuilt = %d, want >= 2 (re-translation after the flush)", st.BlocksBuilt)
	}
	if m.Regs != ref.Regs || m.PC != ref.PC || m.InstCount != ref.InstCount {
		t.Errorf("state diverged after invalidation: pc %#x/%#x inst %d/%d",
			m.PC, ref.PC, m.InstCount, ref.InstCount)
	}
	// The written word must be visible in simulated memory even though
	// the decoded instruction stream is immutable.
	if got := m.Mem.Read32(mustTranslate(t, m, prog.CodeBase+24)); got != 1 {
		t.Errorf("stored word = %d, want 1", got)
	}
}

func mustTranslate(t *testing.T, m *emu.Machine, vaddr uint64) uint64 {
	t.Helper()
	pa, err := m.AS.Translate(vaddr, vm.PermRead)
	if err != nil {
		t.Fatalf("translate %#x: %v", vaddr, err)
	}
	return pa
}

// TestInvalidationDropsPageBlocks checks the cache-hygiene half of
// invalidation directly: after the store the written page's block list
// is empty and no surviving block holds a memoized link to a dead one.
func TestInvalidationDropsPageBlocks(t *testing.T) {
	p := writableTextProgram()
	m, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m)
	// Execute just past the invalidating store (instructions 1..2).
	if err := e.Run(2); err == nil {
		t.Fatal("expected budget exhaustion")
	}
	page := uint64(prog.CodeBase+24) >> e.pageBits
	if n := len(e.byPage[page]); n != 0 {
		t.Errorf("written page still holds %d cached blocks", n)
	}
	if e.pendingInterp != 1 {
		t.Errorf("pendingInterp = %d, want 1", e.pendingInterp)
	}
	for pc0, b := range e.blocks {
		if b.dead {
			t.Errorf("dead block %#x still reachable from the cache", pc0)
		}
		if b.fall != nil && b.fall.dead {
			t.Errorf("block %#x keeps a dead fallthrough link", pc0)
		}
		if b.taken != nil && b.taken.dead {
			t.Errorf("block %#x keeps a dead taken link", pc0)
		}
		if b.jrBlk != nil && b.jrBlk.dead {
			t.Errorf("block %#x keeps a dead jr link", pc0)
		}
	}
}

// spinProgram builds an endless branch loop for cancellation tests.
func spinProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("spin")
	r := b.IVar("r")
	b.Li(r, 1)
	b.Label("loop")
	b.Addi(r, r, 1)
	b.Bgtz(r, "loop")
	p, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return p
}

// countSink is a Warmer that counts what it is handed.
type countSink struct{ blocks, insts, refs uint64 }

func (s *countSink) Block(x *BlockExec)               { s.blocks++; s.insts += x.Count }
func (s *countSink) Ref(uint64, uint64, bool, uint64) { s.refs++ }

// TestCancelObservedAtBlockBoundary pins cancellation latency: an
// already-cancelled context stops Run and Warm before any instruction
// executes or anything is reported.
func TestCancelObservedAtBlockBoundary(t *testing.T) {
	m, err := emu.New(spinProgram(t), 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m)
	ctx, cancel := context.WithCancel(context.Background())
	e.SetCancel(ctx)
	cancel()
	if err := e.Run(0); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if m.InstCount != 0 {
		t.Errorf("InstCount = %d after pre-cancelled Run, want 0", m.InstCount)
	}
	var s countSink
	if err := e.Warm(0, &s); err != context.Canceled {
		t.Fatalf("Warm = %v, want context.Canceled", err)
	}
	if m.InstCount != 0 || s.blocks != 0 || s.refs != 0 {
		t.Errorf("cancelled Warm did work: %d insts, %d blocks, %d refs", m.InstCount, s.blocks, s.refs)
	}
}

// TestCancelStopsSpinLoop proves a running translated loop observes a
// concurrent cancellation: the chain step polls every pollEvery
// instructions, so Run returns promptly instead of spinning forever.
func TestCancelStopsSpinLoop(t *testing.T) {
	m, err := emu.New(spinProgram(t), 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m)
	ctx, cancel := context.WithCancel(context.Background())
	e.SetCancel(ctx)
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	if err := e.Run(0); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if m.InstCount == 0 {
		t.Error("loop made no progress before cancellation")
	}
}

// TestFlushRetranslates: discarding all cached state mid-run, by
// attaching a fresh Engine to the machine every 50 instructions, is
// invisible to the architectural outcome.
func TestFlushRetranslates(t *testing.T) {
	p, err := progen.Generate(321, 150, prog.Budget32, progen.FlavorMixed)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	ref, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(0); err != nil {
		t.Fatalf("interpreted: %v", err)
	}
	m, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m)
	for !m.Halted {
		if err := e.Run(m.InstCount + 50); err != nil && !m.Halted {
			if _, ok := err.(OutsideTextError); ok {
				t.Fatalf("run: %v", err)
			}
		}
		e = New(m)
	}
	if m.Regs != ref.Regs || m.PC != ref.PC || m.InstCount != ref.InstCount ||
		m.AS.WalkCount != ref.AS.WalkCount {
		t.Errorf("flush changed the outcome: inst %d/%d walks %d/%d",
			m.InstCount, ref.InstCount, m.AS.WalkCount, ref.AS.WalkCount)
	}
}

// TestWarmHalted pins Warm's terminal contract: the halt retires and is
// reported, and a halted machine yields emu.ErrHalted.
func TestWarmHalted(t *testing.T) {
	b := prog.NewBuilder("halt")
	b.Halt()
	p, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatal(err)
	}
	m, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m)
	var s countSink
	if err := e.Warm(0, &s); err != nil {
		t.Fatalf("first Warm: %v", err)
	}
	if !m.Halted || s.blocks != 1 || s.insts != 1 {
		t.Fatalf("halt block: halted=%v, %d blocks of %d insts", m.Halted, s.blocks, s.insts)
	}
	if err := e.Warm(0, &s); err != emu.ErrHalted {
		t.Fatalf("Warm on halted machine = %v, want emu.ErrHalted", err)
	}
	if err := e.Warm(0, &s); err != emu.ErrHalted {
		t.Fatalf("repeat Warm = %v, want emu.ErrHalted", err)
	}
}
