package emu

import (
	"errors"
	"math"
	"testing"

	"hbat/internal/isa"
	"hbat/internal/prog"
)

func fib(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("fib")
	out := b.Alloc("out", 8, 8)
	_ = out
	n := b.IVar("n")
	a := b.IVar("a")
	c := b.IVar("c")
	tmp := b.IVar("tmp")
	ptr := b.IVar("ptr")
	b.Li(n, 20)
	b.Li(a, 0)
	b.Li(c, 1)
	b.Label("loop")
	b.Add(tmp, a, c)
	b.Move(a, c)
	b.Move(c, tmp)
	b.Addi(n, n, -1)
	b.Bgtz(n, "loop")
	b.La(ptr, "out")
	b.Sd(a, ptr, 0)
	b.Halt()
	p, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFibonacci(t *testing.T) {
	m, err := New(fib(t), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	if err := m.ReadVirt(prog.DataBase, buf[:]); err != nil {
		t.Fatal(err)
	}
	got := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16
	if got != 6765 { // fib(20)
		t.Fatalf("fib(20) = %d, want 6765", got)
	}
	if !m.Halted {
		t.Fatal("not halted")
	}
}

func TestStepAfterHalt(t *testing.T) {
	b := prog.NewBuilder("h")
	b.Halt()
	p, _ := b.Finalize(prog.Budget32)
	m, _ := New(p, 4096)
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); !errors.Is(err, ErrHalted) {
		t.Fatalf("step after halt: %v", err)
	}
}

func TestInstructionBudget(t *testing.T) {
	b := prog.NewBuilder("inf")
	b.Label("x")
	b.J("x")
	p, _ := b.Finalize(prog.Budget32)
	m, _ := New(p, 4096)
	if err := m.Run(100); err == nil {
		t.Fatal("infinite loop ran to completion?")
	}
	if m.InstCount != 100 {
		t.Fatalf("inst count %d", m.InstCount)
	}
}

func TestPCEscapeFails(t *testing.T) {
	b := prog.NewBuilder("esc")
	b.Op3(isa.Nop, 0, 0, 0) // falls off the end
	p, _ := b.Finalize(prog.Budget32)
	p.Code = p.Code[:1]
	m, _ := New(p, 4096)
	m.Step()
	if err := m.Step(); err == nil {
		t.Fatal("PC escape not detected")
	}
}

func TestMemRefHookSeesProgramOrder(t *testing.T) {
	b := prog.NewBuilder("refs")
	arr := b.Alloc("arr", 64, 8)
	_ = arr
	pR := b.IVar("p")
	v := b.IVar("v")
	b.La(pR, "arr")
	b.Li(v, 7)
	b.Sd(v, pR, 0)
	b.Ld(v, pR, 0)
	b.Sd(v, pR, 8)
	b.Halt()
	p, _ := b.Finalize(prog.Budget32)
	m, _ := New(p, 4096)
	var refs []struct {
		addr  uint64
		write bool
	}
	m.OnMemRef = func(vaddr uint64, write bool) {
		refs = append(refs, struct {
			addr  uint64
			write bool
		}{vaddr, write})
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		addr  uint64
		write bool
	}{
		{prog.DataBase, true},
		{prog.DataBase, false},
		{prog.DataBase + 8, true},
	}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v", refs)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, refs[i], want[i])
		}
	}
}

func TestCallAndReturn(t *testing.T) {
	b := prog.NewBuilder("call")
	v := b.IVar("v")
	b.Li(v, 1)
	b.Jal("double")
	b.Jal("double")
	b.Halt()
	b.Label("double")
	b.Add(v, v, v)
	b.Ret()
	p, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(p, 4096)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// v is allocated to the first pool register (AT).
	if got := m.Regs[isa.AT]; got != 4 {
		t.Fatalf("after two doublings: %d, want 4", got)
	}
}

// TestFloatingPointProgram drives the FP builder helpers end to end:
// constants, arithmetic, compares, conversions, and FP memory ops.
func TestFloatingPointProgram(t *testing.T) {
	b := prog.NewBuilder("fp")
	in := b.Alloc("in", 8*4, 8)
	b.SetFloats(in, []float64{1.5, -2.25, 8.0, 0.5})
	b.Alloc("out", 8*4, 8)

	p := b.IVar("p")
	o := b.IVar("o")
	cmp := b.IVar("cmp")
	n := b.IVar("n")
	x := b.FVar("x")
	y := b.FVar("y")
	z := b.FVar("z")
	k := b.FVar("k")

	b.La(p, "in")
	b.La(o, "out")
	b.LiF(k, 2.0)
	b.LdF(x, p, 0)                  // 1.5
	b.LdF(y, p, 8)                  // -2.25
	b.AddF(z, x, y)                 // -0.75
	b.MulF(z, z, k)                 // -1.5
	b.Op3(isa.AbsF, z, z, isa.Zero) // 1.5
	b.StF(z, o, 0)
	b.LdF(x, p, 16)                 // 8.0
	b.LdF(y, p, 24)                 // 0.5
	b.DivF(z, x, y)                 // 16.0
	b.SubF(z, z, k)                 // 14.0
	b.Op3(isa.NegF, z, z, isa.Zero) // -14.0
	b.StF(z, o, 8)
	// Compare-and-branch: |x| > |z|? (8 vs 14) -> not taken path.
	b.Op3(isa.CmpLtF, cmp, x, z)
	b.Bne(cmp, prog.RegZero, "less")
	b.Op3(isa.CvtFI, n, x, isa.Zero) // 8
	b.Op3(isa.CvtIF, z, n, isa.Zero) // 8.0
	b.MovF(y, z)
	b.StF(y, o, 16)
	b.Label("less")
	b.Halt()
	pr, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(pr, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var buf [24]byte
	// "out" follows "in" in the data segment (DataBase+32).
	if err := m.ReadVirt(prog.DataBase+32, buf[:]); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 3)
	for i := range vals {
		bits := uint64(0)
		for j := 0; j < 8; j++ {
			bits |= uint64(buf[i*8+j]) << (8 * j)
		}
		vals[i] = math.Float64frombits(bits)
	}
	want := []float64{1.5, -14.0, 8.0}
	for i, w := range want {
		if vals[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, vals[i], w)
		}
	}
}

// TestByteHalfwordAccess covers the narrow load/store widths and their
// sign extensions through memory.
func TestByteHalfwordAccess(t *testing.T) {
	b := prog.NewBuilder("narrow")
	b.Alloc("buf", 64, 8)
	b.Alloc("res", 8*4, 8)
	p := b.IVar("p")
	o := b.IVar("o")
	v := b.IVar("v")
	b.La(p, "buf")
	b.La(o, "res")
	b.Li(v, 0x8081)
	b.MemOp(isa.Sh, isa.AMImm, v, p, 0, 0) // halfword 0x8081
	b.MemOp(isa.Lh, isa.AMImm, v, p, 0, 0) // sign-extends
	b.Sd(v, o, 0)
	b.Li(v, 0x80)
	b.MemOp(isa.Sb, isa.AMImm, v, p, 0, 8)
	b.MemOp(isa.Lbu, isa.AMImm, v, p, 0, 8) // zero-extends
	b.Sd(v, o, 8)
	b.MemOp(isa.Lb, isa.AMImm, v, p, 0, 8) // sign-extends
	b.Sd(v, o, 16)
	b.Halt()
	pr, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(pr, 4096)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var buf [24]byte
	if err := m.ReadVirt(prog.DataBase+64, buf[:]); err != nil {
		t.Fatal(err)
	}
	get := func(i int) uint64 {
		bits := uint64(0)
		for j := 0; j < 8; j++ {
			bits |= uint64(buf[i*8+j]) << (8 * j)
		}
		return bits
	}
	if get(0) != 0xFFFFFFFFFFFF8081 {
		t.Errorf("lh sign extension: %#x", get(0))
	}
	if get(1) != 0x80 {
		t.Errorf("lbu zero extension: %#x", get(1))
	}
	if get(2) != 0xFFFFFFFFFFFFFF80 {
		t.Errorf("lb sign extension: %#x", get(2))
	}
}
