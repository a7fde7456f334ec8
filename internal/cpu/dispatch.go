package cpu

import (
	"math"

	"hbat/internal/isa"
	"hbat/internal/pipetrace"
	"hbat/internal/prog"
)

// dispatch renames up to IssueWidth fetched instructions per cycle into
// the re-order buffer (and, for memory operations, the load/store
// queue). Per Section 4.1, dispatch stalls while any detected TLB miss
// is outstanding: speculative misses are never serviced, so the machine
// waits until the missing instruction is squashed or committed.
func (m *Machine) dispatch() {
	if m.tlbMissOutstanding > 0 {
		m.stats.DispatchTLBStalls++
		return
	}
	for w := 0; w < m.cfg.IssueWidth; w++ {
		fi := m.peekFetched()
		if fi == nil {
			if w == 0 {
				m.stats.DispatchEmptyCycles++
			}
			return
		}
		if m.rob.full() {
			if w == 0 {
				m.stats.DispatchROBFull++
			}
			return
		}
		var d *isa.Decoded
		if fi.inst != nil {
			d = &m.dec[(fi.pc-prog.CodeBase)/isa.InstBytes]
		}
		isMem := d != nil && d.IsMem()
		if isMem && m.lsqCount >= m.cfg.LSQSize {
			if w == 0 {
				m.stats.DispatchLSQFull++
			}
			return
		}
		m.popFetched()

		idx := m.rob.push()
		e := m.rob.at(idx)
		e.seq = m.seq
		m.seq++
		e.pc = fi.pc
		e.inst = fi.inst
		e.predNextPC = fi.predNextPC
		e.predTaken = fi.predTaken
		e.ghrSnap = fi.ghrSnap
		if m.tracer != nil {
			m.tracer.Emit(e.seq, fi.fetchCycle, pipetrace.KFetch, e.pc, e.inst, 0)
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KDispatch, e.pc, e.inst, int64(m.rob.count))
		}

		if d == nil || d.Class == isa.ClassNop || d.Class == isa.ClassHalt {
			// Nothing to execute: the entry is born sDone. A nil
			// instruction is a wrong-path fetch beyond the text segment,
			// a placeholder that must be squashed before commit.
			e.nextPC = fi.pc + isa.InstBytes
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, pipetrace.KComplete, e.pc, e.inst, 0)
			}
			continue
		}
		e.class = d.Class
		e.isCtrl = d.Class == isa.ClassBranch || d.Class == isa.ClassJump
		e.isLoad = d.Class == isa.ClassLoad
		e.isStore = d.Class == isa.ClassStore

		// A source whose producer has executed (or committed) is read
		// now; otherwise it is linked to the producer's destination,
		// which delivers it when it executes (setDest).
		e.nsrc = int(d.NSrc)
		for k, r := range d.Srcs[:d.NSrc] {
			op := &e.srcs[k]
			*op = operand{producer: -1}
			if r == isa.Zero {
				continue
			}
			p := m.rename[r]
			if p < 0 {
				op.val = m.regs[r]
				continue
			}
			slot := m.renameSlot[r]
			if pd := &m.rob.at(int(p)).dests[slot]; pd.readyAt != math.MaxInt64 {
				e.deliver(k, pd.val, pd.readyAt)
				continue
			}
			op.producer, op.slot = p, slot
			m.rob.consumers(int(p), int(slot)).add(idx)
			if !e.isData(k) {
				e.pending++
			}
		}
		e.ndest = int(d.NDest)
		for s, r := range d.Dests[:d.NDest] {
			e.dests[s] = dest{reg: r, readyAt: math.MaxInt64}
			if r != isa.Zero {
				m.rename[r] = int32(idx)
				m.renameSlot[r] = int8(s)
			}
		}
		if isMem {
			m.lsqCount++
			e.memWidth = d.MemBytes
			if e.isStore {
				m.rob.sets[setStoreUnknown].add(idx)
			}
		}
		// An operand still to be produced is an event to wait for:
		// nothing visits the entry until setDest delivers the last one.
		m.rob.sets[setUnissued].add(idx)
		if e.pending > 0 {
			e.state = sWaiting
		} else {
			m.ready(idx, e)
		}
	}
}
