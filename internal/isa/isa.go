// Package isa defines the MIPS-like instruction set architecture used by
// the simulator, mirroring the extended virtual MIPS-I superset of
// Austin & Sohi (ISCA '96): 32 integer and 32 floating-point registers,
// extended addressing modes (register+register, post-increment and
// post-decrement), and no architected delay slots.
//
// Instructions are kept in decoded form: the cycle simulator never
// encodes or decodes bit patterns, it executes Inst values directly,
// exactly as the paper's execution-driven simulator did.
package isa

import "fmt"

// Reg names an architected register. Values 0-31 are the integer
// registers, 32-63 the floating-point registers. The total register
// name space is NumRegs.
type Reg uint8

// Integer register conventions (a subset of the MIPS o32 ABI that the
// program builder relies on).
const (
	Zero Reg = 0 // hardwired zero
	AT   Reg = 1 // assembler temporary
	V0   Reg = 2 // results
	V1   Reg = 3
	A0   Reg = 4 // arguments
	A1   Reg = 5
	A2   Reg = 6
	A3   Reg = 7
	T0   Reg = 8 // caller-saved temporaries
	T1   Reg = 9
	T2   Reg = 10
	T3   Reg = 11
	T4   Reg = 12
	T5   Reg = 13
	T6   Reg = 14
	T7   Reg = 15
	S0   Reg = 16 // callee-saved
	S1   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	T8   Reg = 24
	T9   Reg = 25
	K0   Reg = 26
	K1   Reg = 27
	GP   Reg = 28 // global pointer
	SP   Reg = 29 // stack pointer
	FP   Reg = 30 // frame pointer
	RA   Reg = 31 // return address
)

// F returns the i'th floating-point register (0 <= i < 32).
func F(i int) Reg { return Reg(32 + i) }

// NumIntRegs is the count of architected integer registers.
const NumIntRegs = 32

// NumFPRegs is the count of architected floating-point registers.
const NumFPRegs = 32

// NumRegs is the size of the combined register name space.
const NumRegs = NumIntRegs + NumFPRegs

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= 32 }

// String renders the conventional assembler name of the register.
func (r Reg) String() string {
	if r.IsFP() {
		return fmt.Sprintf("$f%d", int(r)-32)
	}
	names := [...]string{
		"$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
		"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
		"$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
		"$t8", "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
	}
	return names[r]
}

// Op is a decoded operation code.
type Op uint8

// Operation codes. Arithmetic ops use Rd = Rs op Rt (or Imm).
// Memory ops use Rd (value) and an effective address built from
// Rs (base) and, depending on Mode, Imm or Rt, with optional base
// register post-update.
const (
	Nop Op = iota

	// Integer ALU, register forms.
	Add  // Rd = Rs + Rt
	Sub  // Rd = Rs - Rt
	And  // Rd = Rs & Rt
	Or   // Rd = Rs | Rt
	Xor  // Rd = Rs ^ Rt
	Nor  // Rd = ^(Rs | Rt)
	Sllv // Rd = Rs << (Rt & 63)
	Srlv // Rd = Rs >> (Rt & 63) logical
	Srav // Rd = Rs >> (Rt & 63) arithmetic
	Slt  // Rd = int64(Rs) < int64(Rt)
	Sltu // Rd = Rs < Rt (unsigned)

	// Integer ALU, immediate forms.
	Addi  // Rd = Rs + Imm
	Andi  // Rd = Rs & uint(Imm)
	Ori   // Rd = Rs | uint(Imm)
	Xori  // Rd = Rs ^ uint(Imm)
	Slti  // Rd = int64(Rs) < Imm
	Sltiu // Rd = Rs < uint64(Imm)
	Sll   // Rd = Rs << Imm
	Srl   // Rd = Rs >> Imm logical
	Sra   // Rd = Rs >> Imm arithmetic
	Lui   // Rd = Imm << 16

	// Integer multiply/divide (results written directly to Rd; the
	// virtual architecture has no HI/LO registers).
	Mult // Rd = Rs * Rt
	Div  // Rd = Rs / Rt (0 if Rt == 0)
	Rem  // Rd = Rs % Rt (0 if Rt == 0)

	// Floating point (operands and result in FP registers).
	AddF // Fd = Fs + Ft
	SubF // Fd = Fs - Ft
	MulF // Fd = Fs * Ft
	DivF // Fd = Fs / Ft
	AbsF // Fd = |Fs|
	NegF // Fd = -Fs
	MovF // Fd = Fs

	// Conversions and cross-file moves.
	CvtIF // Fd = float64(int64(Rs))
	CvtFI // Rd = int64(Fs), truncating
	MTF   // Fd = raw bits of Rs (move to FP)
	MFF   // Rd = raw bits of Fs (move from FP)

	// FP compares write an integer register (1/0) so branches can
	// consume them without condition codes.
	CmpLtF // Rd = Fs < Ft
	CmpLeF // Rd = Fs <= Ft
	CmpEqF // Rd = Fs == Ft

	// Memory. Rd is the loaded/stored value register; Rs is the base.
	Lb  // load signed byte
	Lbu // load unsigned byte
	Lh  // load signed half
	Lhu // load unsigned half
	Lw  // load signed word (32-bit)
	Ld  // load double word (64-bit)
	Sb  // store byte
	Sh  // store half
	Sw  // store word
	Sd  // store double word
	LdF // load 64-bit float into FP register
	StF // store 64-bit float from FP register

	// Control. Branches compare integer registers; Target holds the
	// absolute byte address of the destination.
	Beq  // branch if Rs == Rt
	Bne  // branch if Rs != Rt
	Blez // branch if int64(Rs) <= 0
	Bgtz // branch if int64(Rs) > 0
	Bltz // branch if int64(Rs) < 0
	Bgez // branch if int64(Rs) >= 0
	J    // jump to Target
	Jal  // jump and link: RA = PC+4
	Jr   // jump to Rs
	Jalr // jump to Rs, Rd = PC+4

	// Halt stops simulation (stands in for the exit system call).
	Halt

	numOps
)

// AMode selects the addressing mode of a memory instruction.
type AMode uint8

const (
	// AMImm computes Rs + Imm (the classic MIPS mode).
	AMImm AMode = iota
	// AMReg computes Rs + Rt (the paper's register+register extension).
	// For stores the value register Rd is unchanged.
	AMReg
	// AMPostInc computes Rs, then writes Rs += Imm back to Rs.
	AMPostInc
	// AMPostDec computes Rs, then writes Rs -= Imm back to Rs.
	AMPostDec
)

// Inst is a decoded instruction. The zero value is a Nop.
type Inst struct {
	Op     Op
	Mode   AMode  // memory addressing mode (memory ops only)
	Rd     Reg    // destination (or store-value source)
	Rs     Reg    // first source / base register
	Rt     Reg    // second source / index register
	Imm    int32  // immediate / displacement
	Target uint64 // absolute branch or jump target (byte address)
}

// InstBytes is the architected size of one instruction; the program
// counter advances by this amount.
const InstBytes = 4

// Class partitions ops by how the pipeline treats them.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMult
	ClassIntDiv
	ClassFPAdd
	ClassFPMult
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // unconditional jumps (J, Jal, Jr, Jalr)
	ClassHalt
)

var opClass = [numOps]Class{
	Nop: ClassNop,
	Add: ClassIntALU, Sub: ClassIntALU, And: ClassIntALU, Or: ClassIntALU,
	Xor: ClassIntALU, Nor: ClassIntALU, Sllv: ClassIntALU, Srlv: ClassIntALU,
	Srav: ClassIntALU, Slt: ClassIntALU, Sltu: ClassIntALU,
	Addi: ClassIntALU, Andi: ClassIntALU, Ori: ClassIntALU, Xori: ClassIntALU,
	Slti: ClassIntALU, Sltiu: ClassIntALU, Sll: ClassIntALU, Srl: ClassIntALU,
	Sra: ClassIntALU, Lui: ClassIntALU,
	Mult: ClassIntMult, Div: ClassIntDiv, Rem: ClassIntDiv,
	AddF: ClassFPAdd, SubF: ClassFPAdd, AbsF: ClassFPAdd, NegF: ClassFPAdd,
	MovF: ClassFPAdd, CmpLtF: ClassFPAdd, CmpLeF: ClassFPAdd, CmpEqF: ClassFPAdd,
	CvtIF: ClassFPAdd, CvtFI: ClassFPAdd, MTF: ClassIntALU, MFF: ClassIntALU,
	MulF: ClassFPMult, DivF: ClassFPDiv,
	Lb: ClassLoad, Lbu: ClassLoad, Lh: ClassLoad, Lhu: ClassLoad,
	Lw: ClassLoad, Ld: ClassLoad, LdF: ClassLoad,
	Sb: ClassStore, Sh: ClassStore, Sw: ClassStore, Sd: ClassStore, StF: ClassStore,
	Beq: ClassBranch, Bne: ClassBranch, Blez: ClassBranch, Bgtz: ClassBranch,
	Bltz: ClassBranch, Bgez: ClassBranch,
	J: ClassJump, Jal: ClassJump, Jr: ClassJump, Jalr: ClassJump,
	Halt: ClassHalt,
}

// Class returns the pipeline class of the instruction's op.
func (i *Inst) Class() Class { return opClass[i.Op] }

// IsMem reports whether the instruction accesses data memory.
func (i *Inst) IsMem() bool {
	c := opClass[i.Op]
	return c == ClassLoad || c == ClassStore
}

// IsLoad reports whether the instruction is a load.
func (i *Inst) IsLoad() bool { return opClass[i.Op] == ClassLoad }

// IsCtrl reports whether the instruction can redirect the PC.
func (i *Inst) IsCtrl() bool {
	c := opClass[i.Op]
	return c == ClassBranch || c == ClassJump
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (i *Inst) IsCondBranch() bool { return opClass[i.Op] == ClassBranch }

// MemBytes returns the access width in bytes of a memory instruction
// (0 for non-memory ops).
func (i *Inst) MemBytes() int {
	switch i.Op {
	case Lb, Lbu, Sb:
		return 1
	case Lh, Lhu, Sh:
		return 2
	case Lw, Sw:
		return 4
	case Ld, Sd, LdF, StF:
		return 8
	}
	return 0
}

// UpdatesBase reports whether the memory instruction writes the base
// register back (post-increment/post-decrement addressing).
func (i *Inst) UpdatesBase() bool {
	return i.IsMem() && (i.Mode == AMPostInc || i.Mode == AMPostDec)
}

// Sources appends the architected source registers of the instruction
// to dst and returns the extended slice. Register Zero is included when
// architecturally read; consumers that treat $zero as always-ready
// filter it themselves.
func (i *Inst) Sources(dst []Reg) []Reg {
	switch i.Class() {
	case ClassNop, ClassHalt:
		return dst
	case ClassIntALU, ClassIntMult, ClassIntDiv, ClassFPAdd, ClassFPMult, ClassFPDiv:
		switch i.Op {
		case Lui:
			return dst
		case Sll, Srl, Sra, Addi, Andi, Ori, Xori, Slti, Sltiu,
			AbsF, NegF, MovF, CvtIF, CvtFI, MTF, MFF:
			return append(dst, i.Rs)
		default:
			return append(dst, i.Rs, i.Rt)
		}
	case ClassLoad:
		dst = append(dst, i.Rs)
		if i.Mode == AMReg {
			dst = append(dst, i.Rt)
		}
		return dst
	case ClassStore:
		dst = append(dst, i.Rd, i.Rs)
		if i.Mode == AMReg {
			dst = append(dst, i.Rt)
		}
		return dst
	case ClassBranch:
		switch i.Op {
		case Beq, Bne:
			return append(dst, i.Rs, i.Rt)
		default:
			return append(dst, i.Rs)
		}
	case ClassJump:
		if i.Op == Jr || i.Op == Jalr {
			return append(dst, i.Rs)
		}
		return dst
	}
	return dst
}

// Dests appends the architected destination registers to dst and
// returns the extended slice. A post-update memory op has two
// destinations (the value register for loads, plus the base register).
func (i *Inst) Dests(dst []Reg) []Reg {
	switch i.Class() {
	case ClassNop, ClassHalt, ClassBranch:
		return dst
	case ClassLoad:
		dst = append(dst, i.Rd)
		if i.UpdatesBase() {
			dst = append(dst, i.Rs)
		}
		return dst
	case ClassStore:
		if i.UpdatesBase() {
			dst = append(dst, i.Rs)
		}
		return dst
	case ClassJump:
		switch i.Op {
		case Jal:
			return append(dst, RA)
		case Jalr:
			return append(dst, i.Rd)
		}
		return dst
	default:
		return append(dst, i.Rd)
	}
}

// Decoded is what a pipeline's dispatch stage derives from an
// instruction — class, register lists, access width — worked out once
// per static instruction (prog.Program carries the table) instead of
// once per dynamic one.
type Decoded struct {
	Srcs     [3]Reg // Sources, in order
	Dests    [2]Reg // Dests, in order
	NSrc     uint8
	NDest    uint8
	Class    Class
	MemBytes uint8
}

// IsMem reports whether the instruction accesses data memory.
func (d *Decoded) IsMem() bool { return d.Class == ClassLoad || d.Class == ClassStore }

// Decode predecodes one instruction.
func Decode(in *Inst) Decoded {
	d := Decoded{Class: in.Class(), MemBytes: uint8(in.MemBytes())}
	var buf [3]Reg
	d.NSrc = uint8(copy(d.Srcs[:], in.Sources(buf[:0])))
	d.NDest = uint8(copy(d.Dests[:], in.Dests(buf[:0])))
	return d
}

// DecodeAll predecodes a text segment.
func DecodeAll(code []Inst) []Decoded {
	out := make([]Decoded, len(code))
	for i := range code {
		out[i] = Decode(&code[i])
	}
	return out
}

var opNames = [numOps]string{
	Nop: "nop",
	Add: "add", Sub: "sub", And: "and", Or: "or", Xor: "xor", Nor: "nor",
	Sllv: "sllv", Srlv: "srlv", Srav: "srav", Slt: "slt", Sltu: "sltu",
	Addi: "addi", Andi: "andi", Ori: "ori", Xori: "xori", Slti: "slti",
	Sltiu: "sltiu", Sll: "sll", Srl: "srl", Sra: "sra", Lui: "lui",
	Mult: "mult", Div: "div", Rem: "rem",
	AddF: "add.d", SubF: "sub.d", MulF: "mul.d", DivF: "div.d",
	AbsF: "abs.d", NegF: "neg.d", MovF: "mov.d",
	CvtIF: "cvt.d.w", CvtFI: "cvt.w.d", MTF: "mtc1", MFF: "mfc1",
	CmpLtF: "c.lt.d", CmpLeF: "c.le.d", CmpEqF: "c.eq.d",
	Lb: "lb", Lbu: "lbu", Lh: "lh", Lhu: "lhu", Lw: "lw", Ld: "ld",
	Sb: "sb", Sh: "sh", Sw: "sw", Sd: "sd", LdF: "l.d", StF: "s.d",
	Beq: "beq", Bne: "bne", Blez: "blez", Bgtz: "bgtz", Bltz: "bltz",
	Bgez: "bgez", J: "j", Jal: "jal", Jr: "jr", Jalr: "jalr",
	Halt: "halt",
}

// String returns the mnemonic of the op.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// String renders the instruction in a readable assembler-like form.
func (i *Inst) String() string {
	switch i.Class() {
	case ClassNop:
		return "nop"
	case ClassHalt:
		return "halt"
	case ClassLoad, ClassStore:
		switch i.Mode {
		case AMReg:
			return fmt.Sprintf("%s %s, (%s+%s)", i.Op, i.Rd, i.Rs, i.Rt)
		case AMPostInc:
			return fmt.Sprintf("%s %s, (%s)+%d", i.Op, i.Rd, i.Rs, i.Imm)
		case AMPostDec:
			return fmt.Sprintf("%s %s, (%s)-%d", i.Op, i.Rd, i.Rs, i.Imm)
		default:
			return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs)
		}
	case ClassBranch:
		return fmt.Sprintf("%s %s, %s, 0x%x", i.Op, i.Rs, i.Rt, i.Target)
	case ClassJump:
		if i.Op == Jr || i.Op == Jalr {
			return fmt.Sprintf("%s %s", i.Op, i.Rs)
		}
		return fmt.Sprintf("%s 0x%x", i.Op, i.Target)
	default:
		return fmt.Sprintf("%s %s, %s, %s, %d", i.Op, i.Rd, i.Rs, i.Rt, i.Imm)
	}
}
