package cpu

import (
	"fmt"

	"hbat/internal/isa"
	"hbat/internal/pipetrace"
)

// commit retires up to CommitWidth completed instructions in program
// order: architected registers are written, committed stores write the
// data cache (claiming a port) and physical memory, and — for
// pretranslation designs — register-tracking hooks fire so attached
// translations follow only architecturally real pointer values.
func (m *Machine) commit() {
	headIdx := m.rob.head
	for w := 0; w < m.cfg.CommitWidth; w++ {
		e := m.rob.headEntry()
		if e == nil || e.state != sDone || m.cycle < e.doneAt {
			return
		}
		headIdx = m.rob.head

		if e.inst == nil {
			m.err = fmt.Errorf("cpu: committed fetch from outside text segment at pc 0x%x", e.pc)
			return
		}
		if e.faulted() {
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, pipetrace.KFault, e.pc, e.inst, 1)
			}
			m.err = fmt.Errorf("cpu: protection fault at pc 0x%x (%s, addr 0x%x)", e.pc, e.inst, e.effAddr)
			return
		}
		if e.inst.Op == isa.Halt {
			if m.testCommitHook != nil {
				m.testCommitHook(m, e)
			}
			if m.lockstep != nil && !m.lockstepCheck(e) {
				return
			}
			m.stats.Committed++
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, pipetrace.KCommit, e.pc, e.inst, 0)
			}
			m.halted = true
			m.lastCommitCycle = m.cycle
			m.rob.pop()
			return
		}

		if e.isStore {
			// The architected memory write happens at commit and needs
			// a data-cache port (shared with executing loads). A
			// virtually-indexed cache is addressed by virtual address;
			// physical memory always by the translated one.
			cacheAddr := e.paddr
			if m.cfg.VirtualCache {
				cacheAddr = e.effAddr
			}
			if _, ok := m.dcache.Access(cacheAddr, true, m.cycle); !ok {
				m.stats.CommitStoreRetries++
				if m.tracer != nil {
					m.tracer.Emit(e.seq, m.cycle, pipetrace.KCommitRetry, e.pc, e.inst, 0)
				}
				return // retry next cycle
			}
			m.writeMem(e.paddr, e.memWidth, e.storeVal)
		}

		for i := 0; i < e.ndest; i++ {
			d := &e.dests[i]
			if d.reg != isa.Zero {
				m.regs[d.reg] = d.val
				if m.rename[d.reg] == int32(headIdx) && m.renameSlot[d.reg] == int8(i) {
					m.rename[d.reg] = -1
				}
			}
		}

		if m.tracker != nil {
			m.trackRegisters(e)
		}

		// The entry's architected effects are all applied; check them
		// against the golden emulator before retiring the entry. The
		// test hook runs first so negative tests can corrupt the state
		// the checker is about to inspect.
		if m.testCommitHook != nil {
			m.testCommitHook(m, e)
		}
		if m.lockstep != nil && !m.lockstepCheck(e) {
			return
		}

		m.stats.Committed++
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KCommit, e.pc, e.inst, 0)
		}
		switch {
		case e.isLoad:
			m.stats.CommittedLoads++
		case e.isStore:
			m.stats.CommittedStores++
		case e.isCtrl:
			m.stats.CommittedBranches++
		}
		if e.missCharged() {
			m.tlbMissOutstanding--
		}
		if e.isLoad || e.isStore {
			m.lsqCount--
		}
		m.lastCommitCycle = m.cycle
		m.rob.pop()
		if m.halted {
			return
		}
	}
}

// pointerArith reports whether op is the kind of integer arithmetic the
// pretranslation design treats as pointer-creating (Section 3.5): the
// attached translation of an operand propagates to the result.
func pointerArith(op isa.Op) bool {
	switch op {
	case isa.Add, isa.Addi, isa.Sub, isa.Or, isa.Ori, isa.And, isa.Andi:
		return true
	}
	return false
}

// trackRegisters drives the RegisterTracker hooks at commit.
func (m *Machine) trackRegisters(e *robEntry) {
	in := e.inst
	switch in.Class() {
	case isa.ClassLoad:
		// The loaded value is unrelated to any tracked pointer; a
		// post-update base keeps its attachment (in-place arithmetic).
		m.tracker.InvalidateReg(in.Rd)
	case isa.ClassStore:
		// Stores write no integer register (post-update base keeps
		// its attachment).
	case isa.ClassIntALU:
		if pointerArith(in.Op) {
			src2 := isa.Reg(255)
			switch in.Op {
			case isa.Add, isa.Sub, isa.Or, isa.And:
				src2 = in.Rt
			}
			m.tracker.Propagate(in.Rd, in.Rs, src2)
		} else {
			m.tracker.InvalidateReg(in.Rd)
		}
	case isa.ClassIntMult, isa.ClassIntDiv:
		m.tracker.InvalidateReg(in.Rd)
	case isa.ClassJump:
		if in.Op == isa.Jal {
			m.tracker.InvalidateReg(isa.RA)
		}
		if in.Op == isa.Jalr {
			m.tracker.InvalidateReg(in.Rd)
		}
	case isa.ClassFPAdd:
		if in.Op == isa.CvtFI || in.Op == isa.MFF {
			m.tracker.InvalidateReg(in.Rd)
		}
	}
}
