// Package sblock is the superblock-translated execution engine for the
// functional phase. It pre-decodes the program into cached superblocks
// — straight-line runs that end at a control-flow instruction, a Halt,
// a static branch target, or a page boundary — with operand immediates
// resolved at translation time, and executes whole blocks through one
// dispatch loop instead of re-decoding every instruction. A direct-
// mapped software translation cache short-circuits the page-table walk
// and the physical frame-map lookup on the memory fast path, and block
// successors (fallthrough, taken target, last indirect target) are
// memoized so steady-state dispatch touches no maps.
//
// The engine operates directly on an emu.Machine's architectural state
// and is observationally identical to the interpreter: registers, PC,
// retirement counts, page-table contents and status bits, physical
// frame-allocation order, memory contents, fault behaviour, and
// AddressSpace.WalkCount all match emu.Machine.Run bit for bit (the
// differential battery in this package and internal/ckpt enforces
// this). The only permitted difference is wall time.
//
// Run is the plain entry point. Warm is the observed one, through which
// the checkpoint builder, Figure 6 and trace capture see a run: the
// same chained execution, reporting every block execution (fetch
// address, instruction window, control outcome, a stable block ID) and
// every data reference (with the physical address the engine's own
// access translated) to a Warmer as it goes, so no consumer needs a
// second pass over a recorded stream. The references arrive in the
// interpreter's OnMemRef order, each after its access succeeded.
//
// The design follows the pre-decoded translation approach of "Fast TLB
// Simulation for RISC-V Systems" (arXiv:1905.06825): fold translation
// into fast-path lookups and keep exactness by construction, so the
// checkpoint builder can fast-forward billions of instructions without
// per-instruction decode or map traffic.
package sblock

import (
	"context"
	"encoding/binary"
	"fmt"

	"hbat/internal/emu"
	"hbat/internal/isa"
	"hbat/internal/mem"
	"hbat/internal/vm"
)

// OutsideTextError reports a PC outside the text segment. Its message
// is identical to the interpreter's, so plain-mode callers see the
// same error text; the checkpoint builder unwraps it to reproduce its
// own wrapper verbatim.
type OutsideTextError uint64

func (e OutsideTextError) Error() string {
	return fmt.Sprintf("emu: PC 0x%x outside text segment", uint64(e))
}

// uop is one pre-decoded instruction: operands extracted, immediates
// sign- or zero-extended per the op's semantics, shift amounts
// pre-masked, and memory width resolved — everything emu.Step derives
// per execution is derived once here.
type uop struct {
	op         isa.Op
	mode       isa.AMode
	rd, rs, rt isa.Reg
	width      uint8
	imm        uint64
}

func translate(in *isa.Inst) uop {
	u := uop{op: in.Op, mode: in.Mode, rd: in.Rd, rs: in.Rs, rt: in.Rt}
	switch in.Op {
	case isa.Addi, isa.Slti, isa.Sltiu:
		u.imm = uint64(int64(in.Imm))
	case isa.Andi, isa.Ori, isa.Xori:
		u.imm = uint64(uint32(in.Imm))
	case isa.Sll, isa.Srl, isa.Sra:
		u.imm = uint64(uint32(in.Imm) & 63)
	case isa.Lui:
		u.imm = uint64(int64(in.Imm)) << 16
	default:
		if in.IsMem() {
			u.imm = uint64(int64(in.Imm))
			u.width = uint8(in.MemBytes())
		}
	}
	return u
}

// block is one cached superblock: a straight-line run of body uops
// (never control flow) optionally closed by a terminator (branch,
// jump, or halt). A block never spans a page boundary — that keeps
// text-page demand allocation in program order when the checkpoint
// builder pre-walks the page — and never contains a static branch
// target past its first instruction, so blocks partition rather than
// overlap the reachable code.
type block struct {
	pc0     uint64
	body    []uop
	term    uop
	target  uint64 // static branch/jump target of term
	hasTerm bool
	nInsts  uint64
	end     uint64 // pc0 + 4*nInsts: the fallthrough PC

	// Memoized successors; cleared when the pointee is invalidated.
	fall, taken *block
	jrPC        uint64
	jrBlk       *block
	dead        bool

	id      int    // BlockExec.ID
	fetchPA uint64 // physical address of pc0, once a warm run walked it
	fetchOK bool
}

// Stats counts engine activity; tests use it to assert the fast paths
// actually engage and the fallbacks actually fire.
type Stats struct {
	BlocksBuilt   uint64 // superblocks translated
	BlockExecs    uint64 // block dispatches (full or partial)
	InterpSteps   uint64 // instructions delegated to emu.Step
	Invalidations uint64 // store-to-code events that flushed blocks
	FastHits      uint64 // memory accesses served by the software TLB
	SlowFills     uint64 // memory accesses that took the page-table walk
}

const (
	tlbBits = 8
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

// tlbEnt is one software-translation-cache entry. readOK/writeOK are
// proof bits: they are set only after a successful slow-path
// AddressSpace.Translate with that permission, which also set the
// page's sticky Ref/Dirty status — so a fast-path access needs no
// status update to stay exact. fr caches the backing frame when the
// whole page fits in one frame (page size <= mem.FrameSize; both are
// powers of two, so the aligned page never straddles a frame). A
// read fill caches a read-only view (mem.Memory.View: a frame still
// shared with the program's image or a checkpoint, or the zero frame
// for untouched memory), so reading allocates nothing; a write fill
// replaces it with the frame the memory owns, which fr then keeps.
type tlbEnt struct {
	vpnP1   uint64 // vpn+1; 0 means invalid
	base    uint64 // physical page base (PFN << pageBits)
	fr      *[mem.FrameSize]byte
	readOK  bool
	writeOK bool
}

// Engine executes an emu.Machine's program via cached superblocks. It
// must be attached after the machine is fully loaded (and after any
// ClearStatus); external mutation of the machine's AddressSpace or
// Memory backing store afterwards needs a new Engine.
type Engine struct {
	m         *emu.Machine
	pageBits  uint
	pageMask  uint64
	codeEnd   uint64
	frameable bool

	targets map[uint64]struct{} // static branch/jump targets
	blocks  map[uint64]*block
	byPage  map[uint64][]*block
	hint    *block // predicted next block (chained from the last exec)

	ctx           context.Context // SetCancel's; nil: never cancelled
	polledAt      uint64          // InstCount when ctx was last polled
	pendingInterp int

	exec  BlockExec // the record Warm hands its sink
	tlb   [tlbSize]tlbEnt
	epoch uint64 // the memory's Epoch when the read-only views were taken
	stats Stats
}

// New attaches a translated engine to m. The machine's program is
// scanned once for static control-flow targets; blocks themselves are
// translated lazily on first execution.
func New(m *emu.Machine) *Engine {
	e := &Engine{
		m:         m,
		pageBits:  m.AS.PageBits(),
		pageMask:  m.AS.PageSize() - 1,
		codeEnd:   m.Prog.CodeEnd(),
		frameable: m.AS.PageSize() <= mem.FrameSize,
		targets:   make(map[uint64]struct{}),
		blocks:    make(map[uint64]*block),
		byPage:    make(map[uint64][]*block),
		epoch:     m.Mem.Epoch(),
	}
	for i := range m.Prog.Code {
		in := &m.Prog.Code[i]
		switch in.Op {
		case isa.Beq, isa.Bne, isa.Blez, isa.Bgtz, isa.Bltz, isa.Bgez, isa.J, isa.Jal:
			e.targets[in.Target] = struct{}{}
		}
	}
	return e
}

// pollEvery is how many instructions chained blocks may retire between
// two polls of the context; blocks stay below it.
const pollEvery = 4096

// SetCancel arms cooperative cancellation: the engine polls ctx on
// every pass of its drive loop, so a context cancelled before a run
// stops it before any instruction retires, and at the first block
// boundary after every 4096 chained instructions. A nil ctx disarms it.
func (e *Engine) SetCancel(ctx context.Context) { e.ctx = ctx }

// Stats returns a copy of the engine's activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// syncViews takes the read-only views again once the memory has
// replaced a frame since they were taken. A write outside a page's own
// write fill can reach a frame another entry views: a slow-path store
// that runs past its frame, an interpreted step, a write fill of
// another page in the same frame (pages smaller than a frame), or a
// write between runs. Each replacement happens once per frame, so the
// scans are rare.
func (e *Engine) syncViews() {
	ep := e.m.Mem.Epoch()
	if ep == e.epoch || !e.frameable {
		return
	}
	e.epoch = ep
	for i := range e.tlb {
		if en := &e.tlb[i]; en.fr != nil && !en.writeOK {
			en.fr = e.m.Mem.View(en.base)
		}
	}
}

// lookupBuild returns the cached block starting at pc, translating it
// on first use. It returns nil when pc is outside the text segment.
func (e *Engine) lookupBuild(pc uint64) *block {
	if b, ok := e.blocks[pc]; ok {
		return b
	}
	if e.m.Prog.InstAt(pc) == nil {
		return nil
	}
	return e.build(pc)
}

func (e *Engine) build(pc0 uint64) *block {
	b := &block{pc0: pc0, id: int(e.stats.BlocksBuilt)}
	page := pc0 >> e.pageBits
	pc := pc0
	for {
		in := e.m.Prog.InstAt(pc)
		if in == nil {
			break
		}
		if pc != pc0 {
			if _, tgt := e.targets[pc]; tgt {
				break
			}
		}
		switch in.Class() {
		case isa.ClassBranch, isa.ClassJump, isa.ClassHalt:
			b.term = translate(in)
			b.target = in.Target
			b.hasTerm = true
			pc += isa.InstBytes
		default:
			u := translate(in)
			// A non-memory body op's only architectural effect is its
			// register write, so a zero-register destination makes it a
			// no-op — resolve that here instead of branching on rd in
			// the dispatch loop. (Memory ops keep their access: counts,
			// demand allocation, and faults happen regardless of rd.)
			if u.rd == 0 && !in.IsMem() {
				u.op = isa.Nop
			}
			b.body = append(b.body, u)
			pc += isa.InstBytes
			if pc>>e.pageBits == page {
				continue
			}
		}
		break
	}
	b.nInsts = uint64(len(b.body))
	if b.hasTerm {
		b.nInsts++
	}
	b.end = pc0 + isa.InstBytes*b.nInsts
	e.blocks[pc0] = b
	e.byPage[page] = append(e.byPage[page], b)
	e.stats.BlocksBuilt++
	return b
}

// invalidate handles a store whose written range [vaddr, vaddr+width)
// overlaps the text segment: every cached block on the written page(s)
// is discarded, memoized links into them are cleared, and the engine
// falls back to the interpreter for the next instruction before
// re-translating. Decoded code is immutable in this ISA (fetch reads
// prog.Code, not simulated memory), so this is hygiene that keeps the
// block cache trivially coherent rather than a correctness
// requirement — but it is the contract a translated engine must have,
// and the property tests pin it.
func (e *Engine) invalidate(vaddr uint64, width uint8) {
	first := vaddr >> e.pageBits
	last := (vaddr + uint64(width) - 1) >> e.pageBits
	for page := first; page <= last; page++ {
		for _, b := range e.byPage[page] {
			b.dead = true
			delete(e.blocks, b.pc0)
		}
		delete(e.byPage, page)
	}
	for _, b := range e.blocks {
		if b.fall != nil && b.fall.dead {
			b.fall = nil
		}
		if b.taken != nil && b.taken.dead {
			b.taken = nil
		}
		if b.jrBlk != nil && b.jrBlk.dead {
			b.jrBlk = nil
		}
	}
	if e.hint != nil && e.hint.dead {
		e.hint = nil
	}
	e.stats.Invalidations++
	e.pendingInterp = 1
}

// ---- software translation cache ----

func (e *Engine) memRead(pa uint64, width uint8) uint64 {
	switch width {
	case 1:
		return uint64(e.m.Mem.ByteAt(pa))
	case 2:
		return uint64(e.m.Mem.Read16(pa))
	case 4:
		return uint64(e.m.Mem.Read32(pa))
	default:
		return e.m.Mem.Read64(pa)
	}
}

func (e *Engine) memWrite(pa uint64, width uint8, v uint64) {
	switch width {
	case 1:
		e.m.Mem.SetByte(pa, byte(v))
	case 2:
		e.m.Mem.Write16(pa, uint16(v))
	case 4:
		e.m.Mem.Write32(pa, uint32(v))
	default:
		e.m.Mem.Write64(pa, v)
	}
}

// fill is the slow path: one authoritative Translate (which walks,
// demand-allocates, counts, and sets sticky Ref/Dirty exactly as the
// interpreter's access would) followed by installing the proof bits in
// the translation cache.
func (e *Engine) fill(vaddr uint64, write bool) (uint64, error) {
	perm := vm.PermRead
	if write {
		perm = vm.PermWrite
	}
	pa, err := e.m.AS.Translate(vaddr, perm)
	if err != nil {
		return 0, err
	}
	vpn := vaddr >> e.pageBits
	en := &e.tlb[vpn&tlbMask]
	if en.vpnP1 != vpn+1 {
		*en = tlbEnt{vpnP1: vpn + 1, base: pa &^ e.pageMask}
	}
	if write {
		en.writeOK = true
		if e.frameable {
			en.fr = e.m.Mem.Frame(en.base)
		}
	} else {
		en.readOK = true
		if e.frameable && en.fr == nil {
			en.fr = e.m.Mem.View(en.base)
		}
	}
	e.stats.SlowFills++
	return pa, nil
}

// load performs one data load. The fast path needs the proof bit and
// mirrors the interpreter's observable effects: WalkCount advances by
// exactly one per access (the interpreter's Translate always walks),
// and the access reads physically contiguous bytes from the translated
// address of the first byte, page-crossing quirk included.
func (e *Engine) load(vaddr uint64, width uint8) (uint64, uint64, error) {
	vpn := vaddr >> e.pageBits
	en := &e.tlb[vpn&tlbMask]
	if en.vpnP1 == vpn+1 && en.readOK {
		e.m.AS.WalkCount++
		e.stats.FastHits++
		pa := en.base | (vaddr & e.pageMask)
		if f := en.fr; f != nil {
			off := pa & (mem.FrameSize - 1)
			switch width {
			case 1:
				return uint64(f[off]), pa, nil
			case 2:
				if off <= mem.FrameSize-2 {
					return uint64(binary.LittleEndian.Uint16(f[off:])), pa, nil
				}
			case 4:
				if off <= mem.FrameSize-4 {
					return uint64(binary.LittleEndian.Uint32(f[off:])), pa, nil
				}
			default:
				if off <= mem.FrameSize-8 {
					return binary.LittleEndian.Uint64(f[off:]), pa, nil
				}
			}
		}
		return e.memRead(pa, width), pa, nil
	}
	pa, err := e.fill(vaddr, false)
	if err != nil {
		return 0, 0, err
	}
	return e.memRead(pa, width), pa, nil
}

// store performs one data store, with the same fast-path contract as
// load.
func (e *Engine) store(vaddr uint64, width uint8, v uint64) (uint64, error) {
	vpn := vaddr >> e.pageBits
	en := &e.tlb[vpn&tlbMask]
	if en.vpnP1 == vpn+1 && en.writeOK {
		e.m.AS.WalkCount++
		e.stats.FastHits++
		pa := en.base | (vaddr & e.pageMask)
		if f := en.fr; f != nil {
			off := pa & (mem.FrameSize - 1)
			switch width {
			case 1:
				f[off] = byte(v)
				return pa, nil
			case 2:
				if off <= mem.FrameSize-2 {
					binary.LittleEndian.PutUint16(f[off:], uint16(v))
					return pa, nil
				}
			case 4:
				if off <= mem.FrameSize-4 {
					binary.LittleEndian.PutUint32(f[off:], uint32(v))
					return pa, nil
				}
			default:
				if off <= mem.FrameSize-8 {
					binary.LittleEndian.PutUint64(f[off:], v)
					return pa, nil
				}
			}
		}
		e.memWrite(pa, width, v)
		e.syncViews()
		return pa, nil
	}
	pa, err := e.fill(vaddr, true)
	if err != nil {
		return 0, err
	}
	e.memWrite(pa, width, v)
	e.syncViews()
	return pa, nil
}

// faultErr reproduces emu.Step's fault behaviour at instruction pc:
// the PC stays at the faulting instruction, previously executed block
// instructions remain retired, and the error text matches the
// interpreter's byte for byte.
func (e *Engine) faultErr(pc uint64, err error) error {
	e.m.PC = pc
	in := e.m.Prog.InstAt(pc)
	return fmt.Errorf("emu: %s at pc 0x%x: %w", in, pc, err)
}
