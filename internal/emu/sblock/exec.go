package sblock

import (
	"encoding/binary"
	"fmt"
	"math"

	"hbat/internal/emu"
	"hbat/internal/isa"
	"hbat/internal/mem"
	"hbat/internal/prog"
)

// regMask masks a decoded register index for bounds-check-free access
// to the register file; isa.NumRegs is a power of two and decoded
// indices are already in range, so the mask never changes a value.
const regMask = isa.NumRegs - 1

// CtrlKind classifies the control-flow instruction that closed a block
// execution, for the warm sink's branch-predictor training.
type CtrlKind uint8

// Control kinds of a BlockExec.
const (
	CtrlNone   CtrlKind = iota // no control instruction executed
	CtrlBranch                 // conditional branch
	CtrlJump                   // unconditional jump (J, Jal, Jr, Jalr)
)

// BlockExec describes one block execution of a warm run: the fetch
// stream is implied by (PC0, FetchPA, InstIdx0, Count), and the closing
// control transfer is summarized for predictor training.
type BlockExec struct {
	PC0      uint64 // address of the first executed instruction
	FetchPA  uint64 // physical address of PC0 (valid when FetchOK)
	InstIdx0 uint64 // machine InstCount on entry
	Count    uint64 // instructions executed (> 0)
	NextPC   uint64 // PC after the execution (the control target)
	// ID names the block, dense from 0 in translation order. A block
	// keeps its ID for its lifetime, so every whole execution under one
	// ID covers the same instructions at the same fetch addresses; a
	// re-translated block gets a new ID.
	ID      int
	FetchOK bool
	Whole   bool // the block ran from its entry through its terminator
	Ctrl    CtrlKind
	Taken   bool
}

// Warmer receives a warm run's side-band stream in program order. Its
// methods see the machine mid-run: the retirement counters and
// AS.WalkCount are brought up to date only when Warm returns.
type Warmer interface {
	// Block reports one block execution after its last instruction
	// retired. The pointee is reused by the next call.
	Block(x *BlockExec)
	// Ref reports one data reference after the engine's own access
	// translated it to pa: the page is mapped and its sticky Ref/Dirty
	// bits are set for the access. instIdx is the referencing
	// instruction's index (the machine's InstCount before it retired).
	Ref(vaddr, pa uint64, write bool, instIdx uint64)
}

// Run executes until Halt or maxInsts instructions (0 = unlimited),
// mirroring emu.Machine.Run exactly — same final state, same error
// text on budget exhaustion or faults, same OnMemRef callback order.
// If a cancellation context is armed (SetCancel), it is polled at
// every block boundary and Run returns the context's error.
func (e *Engine) Run(maxInsts uint64) error {
	if err := e.drive(maxInsts, nil); err != nil || e.m.Halted {
		return err
	}
	return fmt.Errorf("emu: instruction budget %d exhausted at pc 0x%x", maxInsts, e.m.PC)
}

// Warm executes until InstCount reaches limit (0 = unbounded) or the
// machine halts, with Run's chaining, cancellation and error contract,
// and reports every block execution and data reference to w. Before
// each block's first instruction it walks the block's text page, so
// the page's demand allocation lands where a per-instruction fetch
// walk would put it; the walk counts once per block, and w accounts
// the block's remaining fetch walks. A block cut short by a fault is
// not reported: the run fails. A machine already halted yields
// emu.ErrHalted. Steady-state Warm allocates nothing.
func (e *Engine) Warm(limit uint64, w Warmer) error {
	if e.m.Halted {
		return emu.ErrHalted
	}
	return e.drive(limit, w)
}

// drive is Run's and Warm's loop: it returns nil once the machine halts
// or InstCount reaches limit.
func (e *Engine) drive(limit uint64, w Warmer) error {
	m := e.m
	e.syncViews()
	for !m.Halted && (limit == 0 || m.InstCount < limit) {
		// Exact (select-based) poll: block chaining makes this loop's
		// iterations rare, and a cancel arriving before the run must
		// stop it before any instruction executes. The hot per-block
		// check is the atomic Tripped inside execBlock's chain step.
		if err := e.poll.Err(); err != nil {
			return err
		}
		if e.pendingInterp > 0 {
			err := e.interpStep(w)
			e.syncViews()
			if err != nil {
				return err
			}
			continue
		}
		b := e.hint
		if b == nil || b.pc0 != m.PC {
			b = e.lookupBuild(m.PC)
			if b == nil {
				return OutsideTextError(m.PC)
			}
		}
		nb, err := e.execBlock(b, limit, w, m.OnMemRef)
		if err != nil {
			return err
		}
		e.hint = nb
	}
	return nil
}

// interpStep delegates one instruction to emu.Step after a block
// invalidation. In a warm run it reports the instruction as a one-
// instruction block execution, with its fetch walk and its data
// reference, exactly as execBlock would.
func (e *Engine) interpStep(w Warmer) error {
	m := e.m
	e.pendingInterp--
	e.stats.InterpSteps++
	e.hint = nil
	if w == nil {
		return m.Step()
	}
	pc, idx := m.PC, m.InstCount
	in := m.Prog.InstAt(pc)
	if in == nil {
		return OutsideTextError(pc)
	}
	x := &e.exec
	*x = BlockExec{PC0: pc, InstIdx0: idx, Count: 1, ID: -1}
	if pte, werr := m.AS.Walk(pc >> e.pageBits); werr == nil {
		x.FetchPA, x.FetchOK = pte.PFN<<e.pageBits|(pc&e.pageMask), true
	}
	// Operands are read before Step overwrites them.
	addr, _, _ := isa.EffAddr(in, m.Regs[in.Rs], m.Regs[in.Rt])
	switch in.Class() {
	case isa.ClassBranch:
		x.Ctrl, x.Taken = CtrlBranch, isa.BranchTaken(in, m.Regs[in.Rs], m.Regs[in.Rt])
	case isa.ClassJump:
		x.Ctrl, x.Taken = CtrlJump, true
	}
	if err := m.Step(); err != nil {
		return err
	}
	if in.IsMem() {
		// The access succeeded, so its page is mapped.
		pte, _ := m.AS.Lookup(addr >> e.pageBits)
		w.Ref(addr, pte.PFN<<e.pageBits|(addr&e.pageMask), in.Class() == isa.ClassStore, idx)
	}
	x.NextPC = m.PC
	w.Block(x)
	return nil
}

// execBlock dispatches pre-decoded uops against the machine state,
// bounded by limit, and chains through memoized successors without
// returning to the caller, re-checking the budget and the cancellation
// flag at every block boundary. In hook mode the machine's OnMemRef
// fires per reference, interpreter-identically; with a Warmer, each
// block's text page is walked on entry and every data reference and
// block execution is reported to it. It returns the memoized successor
// block of the last block executed, when its terminator resolved one.
//
// The machine's retirement counters and the address space's walk count
// are held in locals for the duration and flushed on every exit, so
// the dispatch loop performs no per-instruction stores outside the
// register file.
func (e *Engine) execBlock(b *block, limit uint64, w Warmer, hook func(uint64, bool)) (*block, error) {
	m := e.m
	regs := &m.Regs
	pageBits, pageMask := e.pageBits, e.pageMask
	tlb := &e.tlb

	ic := m.InstCount
	lc, sc := m.LoadCount, m.StoreCount
	bc, tc := m.BranchCount, m.TakenCount
	var wcd, fh, be uint64
	var next *block
	var reterr error
	var ic0 uint64 // InstCount at the current block's entry
	cut := false   // a store to code ended the current block early

blockLoop:
	for {
		be++
		if w != nil {
			ic0 = ic
			// Blocks never span a page and nothing unmaps during a
			// run, so one successful walk fixes the block's fetch
			// address for good; a repeat walk only counts.
			if b.fetchOK {
				wcd++
			} else if pte, werr := m.AS.Walk(b.pc0 >> pageBits); werr == nil {
				b.fetchPA, b.fetchOK = pte.PFN<<pageBits|(b.pc0&pageMask), true
			}
		}
		bodyRun := uint64(len(b.body))
		runTerm := b.hasTerm
		if limit > 0 {
			if rem := limit - ic; rem <= bodyRun {
				bodyRun = rem
				runTerm = false
			}
		}

		// icb+j is the retiring instruction's index, materialized only
		// where an instruction needs it; ic is re-synced at every exit.
		body := b.body[:bodyRun]
		icb := ic
		for j := 0; j < len(body); j++ {
			u := body[j]
			switch u.op {
			// Non-memory body ops with rd == 0 were translated to Nop
			// (their only effect is the register write), so every ALU
			// case below writes its destination unconditionally.
			case isa.Nop:
			case isa.Add:
				regs[u.rd&regMask] = regs[u.rs&regMask] + regs[u.rt&regMask]
			case isa.Sub:
				regs[u.rd&regMask] = regs[u.rs&regMask] - regs[u.rt&regMask]
			case isa.And:
				regs[u.rd&regMask] = regs[u.rs&regMask] & regs[u.rt&regMask]
			case isa.Or:
				regs[u.rd&regMask] = regs[u.rs&regMask] | regs[u.rt&regMask]
			case isa.Xor:
				regs[u.rd&regMask] = regs[u.rs&regMask] ^ regs[u.rt&regMask]
			case isa.Nor:
				regs[u.rd&regMask] = ^(regs[u.rs&regMask] | regs[u.rt&regMask])
			case isa.Sllv:
				regs[u.rd&regMask] = regs[u.rs&regMask] << (regs[u.rt&regMask] & 63)
			case isa.Srlv:
				regs[u.rd&regMask] = regs[u.rs&regMask] >> (regs[u.rt&regMask] & 63)
			case isa.Srav:
				regs[u.rd&regMask] = uint64(int64(regs[u.rs&regMask]) >> (regs[u.rt&regMask] & 63))
			case isa.Slt:
				regs[u.rd&regMask] = b2u(int64(regs[u.rs&regMask]) < int64(regs[u.rt&regMask]))
			case isa.Sltu:
				regs[u.rd&regMask] = b2u(regs[u.rs&regMask] < regs[u.rt&regMask])
			case isa.Addi:
				regs[u.rd&regMask] = regs[u.rs&regMask] + u.imm
			case isa.Andi:
				regs[u.rd&regMask] = regs[u.rs&regMask] & u.imm
			case isa.Ori:
				regs[u.rd&regMask] = regs[u.rs&regMask] | u.imm
			case isa.Xori:
				regs[u.rd&regMask] = regs[u.rs&regMask] ^ u.imm
			case isa.Slti:
				regs[u.rd&regMask] = b2u(int64(regs[u.rs&regMask]) < int64(u.imm))
			case isa.Sltiu:
				regs[u.rd&regMask] = b2u(regs[u.rs&regMask] < u.imm)
			case isa.Sll:
				regs[u.rd&regMask] = regs[u.rs&regMask] << u.imm
			case isa.Srl:
				regs[u.rd&regMask] = regs[u.rs&regMask] >> u.imm
			case isa.Sra:
				regs[u.rd&regMask] = uint64(int64(regs[u.rs&regMask]) >> u.imm)
			case isa.Lui:
				regs[u.rd&regMask] = u.imm
			case isa.Mult:
				regs[u.rd&regMask] = regs[u.rs&regMask] * regs[u.rt&regMask]
			case isa.Div:
				if regs[u.rt&regMask] == 0 {
					regs[u.rd&regMask] = 0
				} else {
					regs[u.rd&regMask] = uint64(int64(regs[u.rs&regMask]) / int64(regs[u.rt&regMask]))
				}
			case isa.Rem:
				if regs[u.rt&regMask] == 0 {
					regs[u.rd&regMask] = 0
				} else {
					regs[u.rd&regMask] = uint64(int64(regs[u.rs&regMask]) % int64(regs[u.rt&regMask]))
				}
			case isa.AddF:
				regs[u.rd&regMask] = math.Float64bits(math.Float64frombits(regs[u.rs&regMask]) + math.Float64frombits(regs[u.rt&regMask]))
			case isa.SubF:
				regs[u.rd&regMask] = math.Float64bits(math.Float64frombits(regs[u.rs&regMask]) - math.Float64frombits(regs[u.rt&regMask]))
			case isa.MulF:
				regs[u.rd&regMask] = math.Float64bits(math.Float64frombits(regs[u.rs&regMask]) * math.Float64frombits(regs[u.rt&regMask]))
			case isa.DivF:
				regs[u.rd&regMask] = math.Float64bits(math.Float64frombits(regs[u.rs&regMask]) / math.Float64frombits(regs[u.rt&regMask]))
			case isa.AbsF:
				regs[u.rd&regMask] = math.Float64bits(math.Abs(math.Float64frombits(regs[u.rs&regMask])))
			case isa.NegF:
				regs[u.rd&regMask] = math.Float64bits(-math.Float64frombits(regs[u.rs&regMask]))
			case isa.MovF:
				regs[u.rd&regMask] = regs[u.rs&regMask]
			case isa.CvtIF:
				regs[u.rd&regMask] = math.Float64bits(float64(int64(regs[u.rs&regMask])))
			case isa.CvtFI:
				f := math.Float64frombits(regs[u.rs&regMask])
				if math.IsNaN(f) {
					regs[u.rd&regMask] = 0
				} else {
					regs[u.rd&regMask] = uint64(int64(f))
				}
			case isa.MTF:
				regs[u.rd&regMask] = regs[u.rs&regMask]
			case isa.MFF:
				regs[u.rd&regMask] = regs[u.rs&regMask]
			case isa.CmpLtF:
				regs[u.rd&regMask] = b2u(math.Float64frombits(regs[u.rs&regMask]) < math.Float64frombits(regs[u.rt&regMask]))
			case isa.CmpLeF:
				regs[u.rd&regMask] = b2u(math.Float64frombits(regs[u.rs&regMask]) <= math.Float64frombits(regs[u.rt&regMask]))
			case isa.CmpEqF:
				regs[u.rd&regMask] = b2u(math.Float64frombits(regs[u.rs&regMask]) == math.Float64frombits(regs[u.rt&regMask]))
			case isa.Lb, isa.Lbu, isa.Lh, isa.Lhu, isa.Lw, isa.Ld, isa.LdF:
				addr, newBase, upd := effAddr(u, regs)
				if hook != nil {
					// The hook observes the machine (the differential
					// battery stamps refs with InstCount), so flush the
					// hoisted counters first.
					ic = icb + uint64(j)
					m.InstCount = ic
					m.LoadCount, m.StoreCount = lc, sc
					m.BranchCount, m.TakenCount = bc, tc
					m.AS.WalkCount += wcd
					wcd = 0
					hook(addr, false)
				}
				// Inline translation-cache fast path; e.load is the
				// uncommon rest (cache miss, unframed page, frame-tail
				// access) and keeps the exact same observable effects.
				var raw, pa uint64
				vpn := addr >> pageBits
				en := &tlb[vpn&tlbMask]
				if fr := en.fr; fr != nil && en.vpnP1 == vpn+1 && en.readOK && (en.base|(addr&pageMask))&(mem.FrameSize-1) <= mem.FrameSize-8 {
					pa = en.base | (addr & pageMask)
					off := pa & (mem.FrameSize - 1)
					wcd++
					fh++
					switch u.width {
					case 1:
						raw = uint64(fr[off])
					case 2:
						raw = uint64(binary.LittleEndian.Uint16(fr[off:]))
					case 4:
						raw = uint64(binary.LittleEndian.Uint32(fr[off:]))
					default:
						raw = binary.LittleEndian.Uint64(fr[off:])
					}
				} else {
					var lerr error
					if raw, pa, lerr = e.load(addr, u.width); lerr != nil {
						ic = icb + uint64(j)
						reterr = e.faultErr(b.pc0+isa.InstBytes*uint64(j), lerr)
						next = nil
						break blockLoop
					}
				}
				if w != nil {
					w.Ref(addr, pa, false, icb+uint64(j))
				}
				if u.rd != 0 {
					regs[u.rd&regMask] = isa.LoadExtend(u.op, raw)
				}
				if upd && u.rs != 0 {
					regs[u.rs&regMask] = newBase
				}
				lc++
			case isa.Sb, isa.Sh, isa.Sw, isa.Sd, isa.StF:
				addr, newBase, upd := effAddr(u, regs)
				if hook != nil {
					ic = icb + uint64(j)
					m.InstCount = ic
					m.LoadCount, m.StoreCount = lc, sc
					m.BranchCount, m.TakenCount = bc, tc
					m.AS.WalkCount += wcd
					wcd = 0
					hook(addr, true)
				}
				v := regs[u.rd&regMask]
				var pa uint64
				vpn := addr >> pageBits
				en := &tlb[vpn&tlbMask]
				if fr := en.fr; fr != nil && en.vpnP1 == vpn+1 && en.writeOK && (en.base|(addr&pageMask))&(mem.FrameSize-1) <= mem.FrameSize-8 {
					pa = en.base | (addr & pageMask)
					off := pa & (mem.FrameSize - 1)
					wcd++
					fh++
					switch u.width {
					case 1:
						fr[off] = byte(v)
					case 2:
						binary.LittleEndian.PutUint16(fr[off:], uint16(v))
					case 4:
						binary.LittleEndian.PutUint32(fr[off:], uint32(v))
					default:
						binary.LittleEndian.PutUint64(fr[off:], v)
					}
				} else {
					var serr error
					if pa, serr = e.store(addr, u.width, v); serr != nil {
						ic = icb + uint64(j)
						reterr = e.faultErr(b.pc0+isa.InstBytes*uint64(j), serr)
						next = nil
						break blockLoop
					}
				}
				if w != nil {
					w.Ref(addr, pa, true, icb+uint64(j))
				}
				if upd && u.rs != 0 {
					regs[u.rs&regMask] = newBase
				}
				sc++
				if addr < e.codeEnd && addr+uint64(u.width) > prog.CodeBase {
					ic = icb + uint64(j) + 1
					m.PC = b.pc0 + isa.InstBytes*(uint64(j)+1)
					e.invalidate(addr, u.width)
					next = nil
					cut = true
					break blockLoop
				}
			default:
				// Unreachable for well-formed programs: every non-control
				// op is enumerated above. Mirror emu.Step's default (ALU
				// path writes ALUEval's zero result); rd == 0 was folded
				// to Nop at translation.
				regs[u.rd&regMask] = 0
			}
		}
		ic = icb + bodyRun

		next = nil
		ctrl, taken := CtrlNone, false
		if !runTerm {
			m.PC = b.pc0 + isa.InstBytes*bodyRun
			if !b.hasTerm && bodyRun == uint64(len(b.body)) {
				if b.fall == nil {
					b.fall = e.lookupBuild(b.end)
				}
				next = b.fall
			}
		} else {
			// Terminator: the block's one control-flow (or halt)
			// instruction.
			t := &b.term
			termPC := b.pc0 + isa.InstBytes*uint64(len(b.body))
			switch t.op {
			case isa.Halt:
				// emu.Step leaves the PC at the halt instruction.
				m.Halted = true
				ic++
				m.PC = termPC
			case isa.Beq, isa.Bne, isa.Blez, isa.Bgtz, isa.Bltz, isa.Bgez:
				bc++
				ctrl = CtrlBranch
				switch t.op {
				case isa.Beq:
					taken = regs[t.rs&regMask] == regs[t.rt&regMask]
				case isa.Bne:
					taken = regs[t.rs&regMask] != regs[t.rt&regMask]
				case isa.Blez:
					taken = int64(regs[t.rs&regMask]) <= 0
				case isa.Bgtz:
					taken = int64(regs[t.rs&regMask]) > 0
				case isa.Bltz:
					taken = int64(regs[t.rs&regMask]) < 0
				case isa.Bgez:
					taken = int64(regs[t.rs&regMask]) >= 0
				}
				if taken {
					tc++
					m.PC = b.target
					if b.taken == nil {
						b.taken = e.lookupBuild(b.target)
					}
					next = b.taken
				} else {
					m.PC = termPC + isa.InstBytes
					if b.fall == nil {
						b.fall = e.lookupBuild(m.PC)
					}
					next = b.fall
				}
				ic++
			case isa.J, isa.Jal:
				bc++
				tc++
				if t.op == isa.Jal {
					regs[isa.RA] = termPC + isa.InstBytes
				}
				m.PC = b.target
				if b.taken == nil {
					b.taken = e.lookupBuild(b.target)
				}
				next = b.taken
				ctrl, taken = CtrlJump, true
				ic++
			case isa.Jr, isa.Jalr:
				bc++
				tc++
				// emu.Step writes the link register before reading the
				// jump base, so jalr with rd == rs jumps to the link
				// value.
				if t.op == isa.Jalr && t.rd != 0 {
					regs[t.rd&regMask] = termPC + isa.InstBytes
				}
				tgt := regs[t.rs&regMask]
				m.PC = tgt
				if b.jrBlk != nil && b.jrPC == tgt {
					next = b.jrBlk
				} else {
					next = e.lookupBuild(tgt)
					b.jrPC, b.jrBlk = tgt, next
				}
				ctrl, taken = CtrlJump, true
				ic++
			}
		}

		if w != nil {
			e.report(w, b, ic0, ic, runTerm == b.hasTerm && bodyRun == uint64(len(b.body)), ctrl, taken)
		}

		// Chain to the memoized successor, with the same budget and
		// cancellation checks the drive loop would perform between
		// blocks.
		if next == nil || m.Halted {
			break
		}
		if limit > 0 && ic >= limit {
			break
		}
		if e.poll.Tripped() {
			break
		}
		b = next
	}
	if cut && w != nil {
		e.report(w, b, ic0, ic, false, CtrlNone, false)
	}

	m.InstCount = ic
	m.LoadCount, m.StoreCount = lc, sc
	m.BranchCount, m.TakenCount = bc, tc
	m.AS.WalkCount += wcd
	e.stats.FastHits += fh
	e.stats.BlockExecs += be
	return next, reterr
}

// report hands w the execution of b that retired instructions
// [ic0, ic).
func (e *Engine) report(w Warmer, b *block, ic0, ic uint64, whole bool, ctrl CtrlKind, taken bool) {
	// Field by field, not a composite literal: the literal is built on
	// the stack and copied in 16-byte moves, which stall store
	// forwarding on the sink's first reads.
	x := &e.exec
	x.PC0, x.FetchPA, x.InstIdx0, x.Count, x.NextPC = b.pc0, b.fetchPA, ic0, ic-ic0, e.m.PC
	x.ID, x.FetchOK, x.Whole, x.Ctrl, x.Taken = b.id, b.fetchOK, whole, ctrl, taken
	w.Block(x)
}

// effAddr mirrors isa.EffAddr on a pre-decoded uop.
func effAddr(u uop, regs *[isa.NumRegs]uint64) (addr, newBase uint64, updates bool) {
	rs := u.rs & regMask
	switch u.mode {
	case isa.AMImm:
		return regs[rs] + u.imm, 0, false
	case isa.AMReg:
		return regs[rs] + regs[u.rt&regMask], 0, false
	case isa.AMPostInc:
		return regs[rs], regs[rs] + u.imm, true
	case isa.AMPostDec:
		return regs[rs], regs[rs] - u.imm, true
	}
	return regs[rs], 0, false
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
