// Package prog provides a small assembler for building simulated
// programs: labels, virtual registers, data allocation, and a register
// allocator with stack spilling. The allocator's register budget is how
// the repository reproduces the paper's "fewer registers" experiment
// (Figure 9): the same workload source finalized with an 8 int / 8 fp
// budget produces the spill-heavy code an x86-class compiler would.
package prog

import (
	"fmt"

	"hbat/internal/isa"
	"hbat/internal/vm"
)

// Standard segment layout of every built program. All addresses fit in
// 32 bits so two-instruction Lui/Ori sequences materialize any pointer.
const (
	CodeBase  = 0x0040_0000 // text segment
	DataBase  = 0x1000_0000 // globals ($gp points here)
	DataSize  = 0x1800_0000 // globals + static heap (384 MB reservable)
	StackTop  = 0x7fff_0000 // stack grows down from here
	StackSize = 0x0100_0000 // 16 MB of stack
)

// MaxPageSize is the largest page this layout runs under. A page is
// mapped when its first byte lies in a segment, and the page holding
// the top of the stack starts inside the stack only while the page is
// no larger than the stack.
const MaxPageSize = StackSize

// RegZero aliases the hardwired zero register so workload generators
// can reference it without importing internal/isa.
const RegZero = isa.Zero

// Program is a finalized, runnable program. A Program is immutable
// once finalized: a machine maps the initial data image into its own
// memory copy-on-write at load time (Load) and only ever reads
// Code/InitRegs/Regions, so one built Program may be shared by any
// number of concurrently running machines (the workload build cache
// depends on this).
type Program struct {
	Name string
	Code []isa.Inst
	// Decoded[i] is Code[i] predecoded (isa.Decode), so the cycle
	// simulator derives nothing per dynamic instruction. Finalize fills
	// it; a Program assembled by hand may leave it nil, and a machine
	// then decodes its own copy.
	Decoded []isa.Decoded
	Entry   uint64
	Regions []vm.Region
	// Data lists the initial-data segments in declaration order, jump
	// tables last; Image holds their bytes.
	Data     []DataSeg
	Image    Image
	InitRegs map[isa.Reg]uint64

	// Budget records the register budget the program was finalized
	// with (useful in reports).
	Budget RegBudget
	// SpillSlots reports how many register spill slots the allocator
	// assigned (0 when every virtual register got a hardware register).
	SpillSlots int
}

// InstAt returns the instruction at byte address pc, or nil when pc is
// outside the text segment (wrong-path fetch may wander there; callers
// treat nil as a no-op that will be squashed).
func (p *Program) InstAt(pc uint64) *isa.Inst {
	if pc < CodeBase {
		return nil
	}
	idx := (pc - CodeBase) / isa.InstBytes
	if idx >= uint64(len(p.Code)) {
		return nil
	}
	return &p.Code[idx]
}

// CodeEnd returns the first byte address past the last instruction.
func (p *Program) CodeEnd() uint64 {
	return CodeBase + uint64(len(p.Code))*isa.InstBytes
}

// RegBudget is the number of architected registers the register
// allocator may use. The paper's baseline is 32/32; its Figure 9 uses
// 8/8. $zero is free and not counted; $sp, $gp, and $ra are structural
// and count against the integer budget.
type RegBudget struct {
	Int int
	FP  int
}

// Budget32 is the baseline register budget.
var Budget32 = RegBudget{Int: 32, FP: 32}

// Budget8 is the reduced budget of the paper's Figure 9 experiment.
var Budget8 = RegBudget{Int: 8, FP: 8}

func (b RegBudget) String() string { return fmt.Sprintf("%dint/%dfp", b.Int, b.FP) }
