package prog

import (
	"fmt"
	"math"

	"hbat/internal/isa"
)

// Virtual register numbering. Physical registers occupy 0..63; the
// builder hands out virtual integer registers in [virtIntBase,
// virtFPBase) and virtual FP registers in [virtFPBase, 256). Virtual
// registers exist only inside the builder; Finalize maps every one to a
// physical register or a stack spill slot.
const (
	virtIntBase = 64
	virtFPBase  = 160
	maxVirtInt  = virtFPBase - virtIntBase
	maxVirtFP   = 256 - virtFPBase
)

func isVirtual(r isa.Reg) bool   { return r >= virtIntBase }
func isVirtualFP(r isa.Reg) bool { return r >= virtFPBase }

// Builder accumulates abstract instructions, labels, and data, then
// Finalize allocates registers and resolves control flow.
type Builder struct {
	name   string
	insts  []isa.Inst
	branch []string // branch/jump label per instruction index ("" = none)
	labels map[string]int

	symbols  map[string]uint64 // data symbol -> address
	dataNext uint64
	data     []DataSeg // declared segments, in declaration order
	image    Image     // their bytes, written as they are set

	jumpTables []jumpTable

	nIntVars int
	nFPVars  int
	varNames map[string]isa.Reg

	err error
}

type jumpTable struct {
	addr   uint64
	labels []string
}

// NewBuilder creates an empty program builder.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:     name,
		labels:   make(map[string]int),
		symbols:  make(map[string]uint64),
		varNames: make(map[string]isa.Reg),
		dataNext: DataBase,
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("prog %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// IVar returns the virtual integer register named name, creating it on
// first use.
func (b *Builder) IVar(name string) isa.Reg {
	if r, ok := b.varNames["i:"+name]; ok {
		return r
	}
	if b.nIntVars >= maxVirtInt {
		b.fail("too many integer variables (max %d)", maxVirtInt)
		return isa.Reg(virtIntBase)
	}
	r := isa.Reg(virtIntBase + b.nIntVars)
	b.nIntVars++
	b.varNames["i:"+name] = r
	return r
}

// FVar returns the virtual floating-point register named name, creating
// it on first use.
func (b *Builder) FVar(name string) isa.Reg {
	if r, ok := b.varNames["f:"+name]; ok {
		return r
	}
	if b.nFPVars >= maxVirtFP {
		b.fail("too many FP variables (max %d)", maxVirtFP)
		return isa.Reg(virtFPBase)
	}
	r := isa.Reg(virtFPBase + b.nFPVars)
	b.nFPVars++
	b.varNames["f:"+name] = r
	return r
}

// emit appends one abstract instruction.
func (b *Builder) emit(in isa.Inst) {
	b.insts = append(b.insts, in)
	b.branch = append(b.branch, "")
}

func (b *Builder) emitBranch(in isa.Inst, label string) {
	b.insts = append(b.insts, in)
	b.branch = append(b.branch, label)
}

// Label defines a control-flow label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.insts)
}

// --- data allocation ---

// Alloc reserves size bytes of zero-initialized global/heap storage
// aligned to align (a power of two) and returns its address, also
// recording it under the symbol name.
func (b *Builder) Alloc(name string, size, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	addr := (b.dataNext + align - 1) &^ (align - 1)
	b.dataNext = addr + size
	if b.dataNext > DataBase+DataSize {
		b.fail("data segment overflow allocating %q (%d bytes)", name, size)
	}
	if name != "" {
		if _, dup := b.symbols[name]; dup {
			b.fail("duplicate symbol %q", name)
		}
		b.symbols[name] = addr
	}
	return addr
}

// Addr returns the address of a previously Alloc'd symbol.
func (b *Builder) Addr(name string) uint64 {
	a, ok := b.symbols[name]
	if !ok {
		b.fail("unknown symbol %q", name)
	}
	return a
}

// SetData declares bytes as initial data at addr (Segment, then set).
func (b *Builder) SetData(addr uint64, bytes []byte) {
	s := b.Segment(addr, uint64(len(bytes)))
	s.write(addr, bytes)
}

// SetWords declares initial 64-bit little-endian words at addr.
func (b *Builder) SetWords(addr uint64, words []uint64) {
	s := b.Segment(addr, 8*uint64(len(words)))
	for i, w := range words {
		s.SetWord(i, w)
	}
}

// SetFloats declares initial float64 values at addr.
func (b *Builder) SetFloats(addr uint64, vals []float64) {
	s := b.Segment(addr, 8*uint64(len(vals)))
	for i, v := range vals {
		s.SetFloat(i, v)
	}
}

// JumpTable allocates a table of 8-byte code addresses, one per label,
// resolved at Finalize time. Programs dispatch through it with Ld + Jr.
func (b *Builder) JumpTable(name string, labels ...string) uint64 {
	addr := b.Alloc(name, uint64(8*len(labels)), 8)
	b.jumpTables = append(b.jumpTables, jumpTable{addr: addr, labels: labels})
	return addr
}

// --- integer ALU helpers ---

// Op3 emits a three-register ALU operation rd = rs op rt.
func (b *Builder) Op3(op isa.Op, rd, rs, rt isa.Reg) {
	b.emit(isa.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt})
}

// OpI emits an immediate ALU operation rd = rs op imm.
func (b *Builder) OpI(op isa.Op, rd, rs isa.Reg, imm int32) {
	b.emit(isa.Inst{Op: op, Rd: rd, Rs: rs, Imm: imm})
}

func (b *Builder) Add(rd, rs, rt isa.Reg)         { b.Op3(isa.Add, rd, rs, rt) }
func (b *Builder) Sub(rd, rs, rt isa.Reg)         { b.Op3(isa.Sub, rd, rs, rt) }
func (b *Builder) And(rd, rs, rt isa.Reg)         { b.Op3(isa.And, rd, rs, rt) }
func (b *Builder) Or(rd, rs, rt isa.Reg)          { b.Op3(isa.Or, rd, rs, rt) }
func (b *Builder) Xor(rd, rs, rt isa.Reg)         { b.Op3(isa.Xor, rd, rs, rt) }
func (b *Builder) Slt(rd, rs, rt isa.Reg)         { b.Op3(isa.Slt, rd, rs, rt) }
func (b *Builder) Sltu(rd, rs, rt isa.Reg)        { b.Op3(isa.Sltu, rd, rs, rt) }
func (b *Builder) Mult(rd, rs, rt isa.Reg)        { b.Op3(isa.Mult, rd, rs, rt) }
func (b *Builder) Div(rd, rs, rt isa.Reg)         { b.Op3(isa.Div, rd, rs, rt) }
func (b *Builder) Rem(rd, rs, rt isa.Reg)         { b.Op3(isa.Rem, rd, rs, rt) }
func (b *Builder) Addi(rd, rs isa.Reg, imm int32) { b.OpI(isa.Addi, rd, rs, imm) }
func (b *Builder) Andi(rd, rs isa.Reg, imm int32) { b.OpI(isa.Andi, rd, rs, imm) }
func (b *Builder) Ori(rd, rs isa.Reg, imm int32)  { b.OpI(isa.Ori, rd, rs, imm) }
func (b *Builder) Xori(rd, rs isa.Reg, imm int32) { b.OpI(isa.Xori, rd, rs, imm) }
func (b *Builder) Slti(rd, rs isa.Reg, imm int32) { b.OpI(isa.Slti, rd, rs, imm) }
func (b *Builder) Sll(rd, rs isa.Reg, sh int32)   { b.OpI(isa.Sll, rd, rs, sh) }
func (b *Builder) Srl(rd, rs isa.Reg, sh int32)   { b.OpI(isa.Srl, rd, rs, sh) }
func (b *Builder) Sra(rd, rs isa.Reg, sh int32)   { b.OpI(isa.Sra, rd, rs, sh) }

// Move copies rs into rd (integer).
func (b *Builder) Move(rd, rs isa.Reg) { b.OpI(isa.Addi, rd, rs, 0) }

// Li loads a constant into an integer register, emitting one or two
// instructions depending on its range.
func (b *Builder) Li(rd isa.Reg, v int64) {
	if v >= -32768 && v < 32768 {
		b.OpI(isa.Addi, rd, isa.Zero, int32(v))
		return
	}
	if v < 0 || v > math.MaxUint32 {
		b.fail("Li constant 0x%x out of 32-bit range", v)
		return
	}
	hi := int32(v >> 16)
	lo := int32(v & 0xffff)
	b.OpI(isa.Lui, rd, isa.Zero, hi)
	if lo != 0 {
		b.Ori(rd, rd, lo)
	}
}

// La loads the address of a data symbol into rd.
func (b *Builder) La(rd isa.Reg, symbol string) { b.Li(rd, int64(b.Addr(symbol))) }

// --- floating point helpers ---

func (b *Builder) AddF(fd, fs, ft isa.Reg)   { b.Op3(isa.AddF, fd, fs, ft) }
func (b *Builder) SubF(fd, fs, ft isa.Reg)   { b.Op3(isa.SubF, fd, fs, ft) }
func (b *Builder) MulF(fd, fs, ft isa.Reg)   { b.Op3(isa.MulF, fd, fs, ft) }
func (b *Builder) DivF(fd, fs, ft isa.Reg)   { b.Op3(isa.DivF, fd, fs, ft) }
func (b *Builder) MovF(fd, fs isa.Reg)       { b.Op3(isa.MovF, fd, fs, isa.Zero) }
func (b *Builder) NegF(fd, fs isa.Reg)       { b.Op3(isa.NegF, fd, fs, isa.Zero) }
func (b *Builder) AbsF(fd, fs isa.Reg)       { b.Op3(isa.AbsF, fd, fs, isa.Zero) }
func (b *Builder) CvtIF(fd, rs isa.Reg)      { b.Op3(isa.CvtIF, fd, rs, isa.Zero) }
func (b *Builder) CvtFI(rd, fs isa.Reg)      { b.Op3(isa.CvtFI, rd, fs, isa.Zero) }
func (b *Builder) CmpLtF(rd, fs, ft isa.Reg) { b.Op3(isa.CmpLtF, rd, fs, ft) }
func (b *Builder) CmpLeF(rd, fs, ft isa.Reg) { b.Op3(isa.CmpLeF, rd, fs, ft) }
func (b *Builder) CmpEqF(rd, fs, ft isa.Reg) { b.Op3(isa.CmpEqF, rd, fs, ft) }

// LiF loads a float constant through the integer path (Lui/Ori cannot
// build a double): the constant is stored in a pooled data slot and
// loaded. The pool slot is shared across identical constants.
func (b *Builder) LiF(fd isa.Reg, v float64) {
	name := fmt.Sprintf("$fconst:%x", math.Float64bits(v))
	addr, ok := b.symbols[name]
	if !ok {
		addr = b.Alloc(name, 8, 8)
		b.SetFloats(addr, []float64{v})
	}
	tmp := b.IVar(name + ":ptr")
	b.Li(tmp, int64(addr))
	b.LdF(fd, tmp, 0)
}

// --- memory helpers ---

// MemOp emits a memory instruction with an explicit addressing mode.
func (b *Builder) MemOp(op isa.Op, mode isa.AMode, rd, rs, rt isa.Reg, imm int32) {
	b.emit(isa.Inst{Op: op, Mode: mode, Rd: rd, Rs: rs, Rt: rt, Imm: imm})
}

func (b *Builder) Lb(rd, base isa.Reg, off int32)  { b.MemOp(isa.Lb, isa.AMImm, rd, base, 0, off) }
func (b *Builder) Lbu(rd, base isa.Reg, off int32) { b.MemOp(isa.Lbu, isa.AMImm, rd, base, 0, off) }
func (b *Builder) Lh(rd, base isa.Reg, off int32)  { b.MemOp(isa.Lh, isa.AMImm, rd, base, 0, off) }
func (b *Builder) Lw(rd, base isa.Reg, off int32)  { b.MemOp(isa.Lw, isa.AMImm, rd, base, 0, off) }
func (b *Builder) Ld(rd, base isa.Reg, off int32)  { b.MemOp(isa.Ld, isa.AMImm, rd, base, 0, off) }
func (b *Builder) Sb(rv, base isa.Reg, off int32)  { b.MemOp(isa.Sb, isa.AMImm, rv, base, 0, off) }
func (b *Builder) Sh(rv, base isa.Reg, off int32)  { b.MemOp(isa.Sh, isa.AMImm, rv, base, 0, off) }
func (b *Builder) Sw(rv, base isa.Reg, off int32)  { b.MemOp(isa.Sw, isa.AMImm, rv, base, 0, off) }
func (b *Builder) Sd(rv, base isa.Reg, off int32)  { b.MemOp(isa.Sd, isa.AMImm, rv, base, 0, off) }
func (b *Builder) LdF(fd, base isa.Reg, off int32) { b.MemOp(isa.LdF, isa.AMImm, fd, base, 0, off) }
func (b *Builder) StF(fv, base isa.Reg, off int32) { b.MemOp(isa.StF, isa.AMImm, fv, base, 0, off) }

// Indexed (register+register) addressing, the paper's extension.
func (b *Builder) LwX(rd, base, idx isa.Reg)  { b.MemOp(isa.Lw, isa.AMReg, rd, base, idx, 0) }
func (b *Builder) LdX(rd, base, idx isa.Reg)  { b.MemOp(isa.Ld, isa.AMReg, rd, base, idx, 0) }
func (b *Builder) SwX(rv, base, idx isa.Reg)  { b.MemOp(isa.Sw, isa.AMReg, rv, base, idx, 0) }
func (b *Builder) SdX(rv, base, idx isa.Reg)  { b.MemOp(isa.Sd, isa.AMReg, rv, base, idx, 0) }
func (b *Builder) LdFX(fd, base, idx isa.Reg) { b.MemOp(isa.LdF, isa.AMReg, fd, base, idx, 0) }
func (b *Builder) StFX(fv, base, idx isa.Reg) { b.MemOp(isa.StF, isa.AMReg, fv, base, idx, 0) }

// Post-increment addressing, the paper's extension: access at base,
// then base += delta.
func (b *Builder) LdPost(rd, base isa.Reg, delta int32) {
	b.MemOp(isa.Ld, isa.AMPostInc, rd, base, 0, delta)
}
func (b *Builder) LwPost(rd, base isa.Reg, delta int32) {
	b.MemOp(isa.Lw, isa.AMPostInc, rd, base, 0, delta)
}
func (b *Builder) LbuPost(rd, base isa.Reg, delta int32) {
	b.MemOp(isa.Lbu, isa.AMPostInc, rd, base, 0, delta)
}
func (b *Builder) SdPost(rv, base isa.Reg, delta int32) {
	b.MemOp(isa.Sd, isa.AMPostInc, rv, base, 0, delta)
}
func (b *Builder) SwPost(rv, base isa.Reg, delta int32) {
	b.MemOp(isa.Sw, isa.AMPostInc, rv, base, 0, delta)
}
func (b *Builder) LdFPost(fd, base isa.Reg, delta int32) {
	b.MemOp(isa.LdF, isa.AMPostInc, fd, base, 0, delta)
}
func (b *Builder) StFPost(fv, base isa.Reg, delta int32) {
	b.MemOp(isa.StF, isa.AMPostInc, fv, base, 0, delta)
}

// --- control flow helpers ---

// Br emits a conditional branch to label.
func (b *Builder) Br(op isa.Op, rs, rt isa.Reg, label string) {
	b.emitBranch(isa.Inst{Op: op, Rs: rs, Rt: rt}, label)
}

func (b *Builder) Beq(rs, rt isa.Reg, label string) { b.Br(isa.Beq, rs, rt, label) }
func (b *Builder) Bne(rs, rt isa.Reg, label string) { b.Br(isa.Bne, rs, rt, label) }
func (b *Builder) Blez(rs isa.Reg, label string)    { b.Br(isa.Blez, rs, isa.Zero, label) }
func (b *Builder) Bgtz(rs isa.Reg, label string)    { b.Br(isa.Bgtz, rs, isa.Zero, label) }
func (b *Builder) Bltz(rs isa.Reg, label string)    { b.Br(isa.Bltz, rs, isa.Zero, label) }
func (b *Builder) Bgez(rs isa.Reg, label string)    { b.Br(isa.Bgez, rs, isa.Zero, label) }

// J emits an unconditional jump to label.
func (b *Builder) J(label string) { b.emitBranch(isa.Inst{Op: isa.J}, label) }

// Jal emits a call to label, linking into $ra.
func (b *Builder) Jal(label string) { b.emitBranch(isa.Inst{Op: isa.Jal}, label) }

// Jr emits an indirect jump through rs.
func (b *Builder) Jr(rs isa.Reg) { b.emit(isa.Inst{Op: isa.Jr, Rs: rs}) }

// Ret returns through $ra.
func (b *Builder) Ret() { b.emit(isa.Inst{Op: isa.Jr, Rs: isa.RA}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(isa.Inst{Op: isa.Nop}) }

// Halt emits the program-termination instruction.
func (b *Builder) Halt() { b.emit(isa.Inst{Op: isa.Halt}) }

// Len reports how many abstract instructions have been emitted so far.
func (b *Builder) Len() int { return len(b.insts) }
