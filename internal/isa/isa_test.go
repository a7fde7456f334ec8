package isa

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		Zero: "$zero", SP: "$sp", GP: "$gp", RA: "$ra", T0: "$t0",
		F(0): "$f0", F(31): "$f31",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		in    Inst
		class Class
		load  bool
		store bool
		ctrl  bool
	}{
		{Inst{Op: Add}, ClassIntALU, false, false, false},
		{Inst{Op: Lw}, ClassLoad, true, false, false},
		{Inst{Op: StF}, ClassStore, false, true, false},
		{Inst{Op: Beq}, ClassBranch, false, false, true},
		{Inst{Op: Jr}, ClassJump, false, false, true},
		{Inst{Op: MulF}, ClassFPMult, false, false, false},
		{Inst{Op: Div}, ClassIntDiv, false, false, false},
		{Inst{Op: Halt}, ClassHalt, false, false, false},
	}
	for _, c := range cases {
		if got := c.in.Class(); got != c.class {
			t.Errorf("%v.Class() = %v, want %v", c.in.Op, got, c.class)
		}
		if c.in.IsLoad() != c.load || (opClass[c.in.Op] == ClassStore) != c.store || c.in.IsCtrl() != c.ctrl {
			t.Errorf("%v: load/store/ctrl flags wrong", c.in.Op)
		}
	}
}

func TestSourcesAndDests(t *testing.T) {
	var buf [4]Reg
	cases := []struct {
		in    Inst
		srcs  []Reg
		dests []Reg
	}{
		{Inst{Op: Add, Rd: T0, Rs: T1, Rt: T2}, []Reg{T1, T2}, []Reg{T0}},
		{Inst{Op: Addi, Rd: T0, Rs: T1}, []Reg{T1}, []Reg{T0}},
		{Inst{Op: Lui, Rd: T0}, nil, []Reg{T0}},
		{Inst{Op: Lw, Rd: T0, Rs: T1, Mode: AMImm}, []Reg{T1}, []Reg{T0}},
		{Inst{Op: Lw, Rd: T0, Rs: T1, Rt: T2, Mode: AMReg}, []Reg{T1, T2}, []Reg{T0}},
		{Inst{Op: Lw, Rd: T0, Rs: T1, Mode: AMPostInc}, []Reg{T1}, []Reg{T0, T1}},
		{Inst{Op: Sw, Rd: T0, Rs: T1, Mode: AMImm}, []Reg{T0, T1}, nil},
		{Inst{Op: Sw, Rd: T0, Rs: T1, Mode: AMPostDec}, []Reg{T0, T1}, []Reg{T1}},
		{Inst{Op: Sw, Rd: T0, Rs: T1, Rt: T2, Mode: AMReg}, []Reg{T0, T1, T2}, nil},
		{Inst{Op: Beq, Rs: T1, Rt: T2}, []Reg{T1, T2}, nil},
		{Inst{Op: Blez, Rs: T1}, []Reg{T1}, nil},
		{Inst{Op: Jal}, nil, []Reg{RA}},
		{Inst{Op: Jalr, Rd: T5, Rs: T1}, []Reg{T1}, []Reg{T5}},
		{Inst{Op: Jr, Rs: RA}, []Reg{RA}, nil},
		{Inst{Op: Halt}, nil, nil},
	}
	for _, c := range cases {
		got := c.in.Sources(buf[:0])
		if !regsEqual(got, c.srcs) {
			t.Errorf("%s sources = %v, want %v", c.in.String(), got, c.srcs)
		}
		got = c.in.Dests(buf[:0])
		if !regsEqual(got, c.dests) {
			t.Errorf("%s dests = %v, want %v", c.in.String(), got, c.dests)
		}
	}
}

func regsEqual(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestALUEvalIntegerOps(t *testing.T) {
	cases := []struct {
		in     Inst
		rs, rt uint64
		want   uint64
	}{
		{Inst{Op: Add}, 5, 7, 12},
		{Inst{Op: Sub}, 5, 7, ^uint64(1)},
		{Inst{Op: And}, 0xF0, 0x3C, 0x30},
		{Inst{Op: Or}, 0xF0, 0x0C, 0xFC},
		{Inst{Op: Xor}, 0xFF, 0x0F, 0xF0},
		{Inst{Op: Nor}, 0, 0, ^uint64(0)},
		{Inst{Op: Slt}, ^uint64(0), 1, 1},  // -1 < 1 signed
		{Inst{Op: Sltu}, ^uint64(0), 1, 0}, // max > 1 unsigned
		{Inst{Op: Addi, Imm: -3}, 10, 0, 7},
		{Inst{Op: Sll, Imm: 4}, 3, 0, 48},
		{Inst{Op: Srl, Imm: 1}, 0x8000000000000000, 0, 0x4000000000000000},
		{Inst{Op: Sra, Imm: 1}, 0x8000000000000000, 0, 0xC000000000000000},
		{Inst{Op: Lui, Imm: 0x1234}, 0, 0, 0x12340000},
		{Inst{Op: Mult}, 7, 6, 42},
		{Inst{Op: Div}, 42, 6, 7},
		{Inst{Op: Div}, 42, 0, 0}, // architected: no trap
		{Inst{Op: Rem}, 43, 6, 1},
		{Inst{Op: Slti, Imm: 5}, 4, 0, 1},
	}
	for _, c := range cases {
		if got := ALUEval(&c.in, c.rs, c.rt, 0); got != c.want {
			t.Errorf("%v(%#x,%#x) = %#x, want %#x", c.in.Op, c.rs, c.rt, got, c.want)
		}
	}
}

func TestALUEvalFloat(t *testing.T) {
	f := math.Float64bits
	cases := []struct {
		op     Op
		rs, rt float64
		want   float64
	}{
		{AddF, 1.5, 2.25, 3.75},
		{SubF, 1.5, 2.25, -0.75},
		{MulF, 3, 0.5, 1.5},
		{DivF, 3, 2, 1.5},
		{AbsF, -3, 0, 3},
		{NegF, 3, 0, -3},
		{MovF, 42.5, 0, 42.5},
	}
	for _, c := range cases {
		in := Inst{Op: c.op}
		if got := ALUEval(&in, f(c.rs), f(c.rt), 0); got != f(c.want) {
			t.Errorf("%v(%v,%v) = %v, want %v", c.op, c.rs, c.rt, math.Float64frombits(got), c.want)
		}
	}
	in := Inst{Op: CvtIF}
	if got := ALUEval(&in, uint64(7), 0, 0); math.Float64frombits(got) != 7.0 {
		t.Errorf("CvtIF(7) = %v", math.Float64frombits(got))
	}
	in = Inst{Op: CvtFI}
	if got := ALUEval(&in, f(7.9), 0, 0); got != 7 {
		t.Errorf("CvtFI(7.9) = %d, want 7 (truncating)", int64(got))
	}
	in = Inst{Op: CmpLtF}
	if got := ALUEval(&in, f(1), f(2), 0); got != 1 {
		t.Error("CmpLtF(1,2) != 1")
	}
}

func TestBranchTaken(t *testing.T) {
	neg := uint64(math.MaxUint64) // -1
	cases := []struct {
		op     Op
		rs, rt uint64
		want   bool
	}{
		{Beq, 5, 5, true}, {Beq, 5, 6, false},
		{Bne, 5, 6, true}, {Bne, 5, 5, false},
		{Blez, 0, 0, true}, {Blez, neg, 0, true}, {Blez, 1, 0, false},
		{Bgtz, 1, 0, true}, {Bgtz, 0, 0, false}, {Bgtz, neg, 0, false},
		{Bltz, neg, 0, true}, {Bltz, 0, 0, false},
		{Bgez, 0, 0, true}, {Bgez, neg, 0, false},
	}
	for _, c := range cases {
		in := Inst{Op: c.op}
		if got := BranchTaken(&in, c.rs, c.rt); got != c.want {
			t.Errorf("%v(%#x) = %v, want %v", c.op, c.rs, c.want, got)
		}
	}
}

func TestEffAddr(t *testing.T) {
	in := Inst{Op: Lw, Mode: AMImm, Imm: -8}
	if a, _, upd := EffAddr(&in, 100, 0); a != 92 || upd {
		t.Errorf("AMImm: addr %d upd %v", a, upd)
	}
	in = Inst{Op: Lw, Mode: AMReg}
	if a, _, upd := EffAddr(&in, 100, 28); a != 128 || upd {
		t.Errorf("AMReg: addr %d upd %v", a, upd)
	}
	in = Inst{Op: Lw, Mode: AMPostInc, Imm: 4}
	if a, nb, upd := EffAddr(&in, 100, 0); a != 100 || nb != 104 || !upd {
		t.Errorf("AMPostInc: addr %d newBase %d upd %v", a, nb, upd)
	}
	in = Inst{Op: Lw, Mode: AMPostDec, Imm: 4}
	if a, nb, upd := EffAddr(&in, 100, 0); a != 100 || nb != 96 || !upd {
		t.Errorf("AMPostDec: addr %d newBase %d upd %v", a, nb, upd)
	}
}

func TestLoadExtend(t *testing.T) {
	cases := []struct {
		op   Op
		raw  uint64
		want uint64
	}{
		{Lb, 0x80, 0xFFFFFFFFFFFFFF80},
		{Lbu, 0x80, 0x80},
		{Lh, 0x8000, 0xFFFFFFFFFFFF8000},
		{Lhu, 0x8000, 0x8000},
		{Lw, 0x80000000, 0xFFFFFFFF80000000},
		{Ld, 0x8000000000000000, 0x8000000000000000},
	}
	for _, c := range cases {
		if got := LoadExtend(c.op, c.raw); got != c.want {
			t.Errorf("LoadExtend(%v, %#x) = %#x, want %#x", c.op, c.raw, got, c.want)
		}
	}
}

// Property: Add/Sub and Sll/Srl are inverses where defined.
func TestALUInverseProperties(t *testing.T) {
	add := Inst{Op: Add}
	sub := Inst{Op: Sub}
	if err := quick.Check(func(a, b uint64) bool {
		return ALUEval(&sub, ALUEval(&add, a, b, 0), b, 0) == a
	}, nil); err != nil {
		t.Error("add/sub inverse:", err)
	}
	if err := quick.Check(func(a uint64, sh uint8) bool {
		s := int32(sh % 32)
		sll := Inst{Op: Sll, Imm: s}
		srl := Inst{Op: Srl, Imm: s}
		masked := a << (64 - uint(s) - 1) >> (64 - uint(s) - 1) // value that survives the round trip
		return ALUEval(&srl, ALUEval(&sll, masked, 0, 0), 0, 0) == masked
	}, nil); err != nil {
		t.Error("sll/srl inverse:", err)
	}
}

// TestDecodeAgreesWithInst: the predecoded form carries exactly what
// the per-instruction methods report, for every op in every addressing
// mode.
func TestDecodeAgreesWithInst(t *testing.T) {
	var code []Inst
	for op := Op(0); op < numOps; op++ {
		for _, mode := range []AMode{AMImm, AMReg, AMPostInc, AMPostDec} {
			code = append(code, Inst{Op: op, Mode: mode, Rd: 3, Rs: 4, Rt: 5, Imm: 8})
		}
	}
	for i, d := range DecodeAll(code) {
		in := &code[i]
		if d.Class != in.Class() || int(d.MemBytes) != in.MemBytes() || d.IsMem() != in.IsMem() {
			t.Errorf("%v: decoded class %d width %d mem %v", in, d.Class, d.MemBytes, d.IsMem())
		}
		if got, want := d.Srcs[:d.NSrc], in.Sources(nil); !slices.Equal(got, want) {
			t.Errorf("%v: decoded sources %v, want %v", in, got, want)
		}
		if got, want := d.Dests[:d.NDest], in.Dests(nil); !slices.Equal(got, want) {
			t.Errorf("%v: decoded dests %v, want %v", in, got, want)
		}
	}
}
