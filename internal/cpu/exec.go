package cpu

import (
	"fmt"
	"math/bits"

	"hbat/internal/isa"
	"hbat/internal/pipetrace"
	"hbat/internal/tlb"
	"hbat/internal/vm"
)

// setDest fixes destination slot of entry idx — its value, and the
// cycle it is available from — and delivers both to the consumers
// dispatch linked to it. Delivery is the event two kinds of consumer
// wait for: one with no operand left to wait for becomes sReady, and a
// translated store waiting for this value as its data is parked until
// the value is available.
func (m *Machine) setDest(idx int, e *robEntry, slot int, val uint64, readyAt int64) {
	e.dests[slot].val, e.dests[slot].readyAt = val, readyAt
	cons := m.rob.consumers(idx, slot)
	for word := *cons; word != 0; word &= word - 1 {
		c := bits.TrailingZeros64(uint64(word))
		ce := m.rob.at(c)
		for k := 0; k < ce.nsrc; k++ {
			if op := &ce.srcs[k]; op.producer == int32(idx) && op.slot == int8(slot) {
				op.producer = -1
				ce.deliver(k, val, readyAt)
				if ce.isData(k) {
					if ce.state == sStoreData {
						m.rob.park(wheelMem, c, max(readyAt, m.cycle+1), m.cycle)
					}
					continue
				}
				if ce.pending--; ce.pending == 0 {
					m.ready(c, ce)
				}
			}
		}
	}
	*cons = 0
}

// ready makes entry idx, whose last issue operand has just been
// delivered (or was never outstanding), sReady: visited by issue if the
// operands are available already, parked until they are otherwise.
func (m *Machine) ready(idx int, e *robEntry) {
	e.state = sReady
	if e.readyAt <= m.cycle {
		m.rob.sets[setReady].add(idx)
	} else {
		m.rob.park(wheelReady, idx, e.readyAt, m.cycle)
	}
}

// isData reports whether source operand k is a store's data value.
// Stores issue on their address operands alone (Table 1: store
// addresses become known to the load/store queue as soon as they can be
// computed); the data value is captured later, before commit.
func (e *robEntry) isData(k int) bool { return k == 0 && e.isStore }

// deliver records the value of source operand k, available from cycle
// at.
func (e *robEntry) deliver(k int, val uint64, at int64) {
	e.srcs[k].val = val
	if e.isData(k) {
		e.dataAt = at
	} else if at > e.readyAt {
		e.readyAt = at
	}
}

// storeDataReady reports whether a store's data value has arrived.
func (m *Machine) storeDataReady(e *robEntry) bool {
	return e.srcs[0].producer < 0 && e.dataAt <= m.cycle
}

// wawHazard implements the in-order model's "no renaming" stall: an
// instruction may not issue while an older, incomplete instruction
// writes one of its destination registers.
func (m *Machine) wawHazard(idx int, e *robEntry) bool {
	for j := m.rob.head; j != idx; j = m.rob.inc(j) {
		o := m.rob.at(j)
		if o.state == sDone && m.cycle >= o.doneAt {
			continue
		}
		for a := 0; a < o.ndest; a++ {
			if o.dests[a].readyAt <= m.cycle {
				continue
			}
			for b := 0; b < e.ndest; b++ {
				if o.dests[a].reg == e.dests[b].reg && o.dests[a].reg != isa.Zero {
					return true
				}
			}
		}
	}
	return false
}

// olderStoreAddrsKnown implements the load/store queue's ordering rule
// (Table 1): a load may execute only when every prior store address has
// been computed.
func (m *Machine) olderStoreAddrsKnown(idx int) bool {
	return !m.rob.anyOlder(setStoreUnknown, idx)
}

// acquireFU claims a functional unit for e's class this cycle,
// modeling Table 1's pool: 8 integer ALUs, 4 load/store units, 4 FP
// adders, and single integer and FP multiply/divide units whose divides
// are unpipelined (issue interval = latency).
func (m *Machine) acquireFU(e *robEntry) (lat int64, ok bool) {
	switch e.class {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump:
		if m.intALUUsed >= m.cfg.IntALUs {
			return 0, false
		}
		m.intALUUsed++
		return m.cfg.IntALULat, true
	case isa.ClassIntMult:
		if m.intMDFree > m.cycle {
			return 0, false
		}
		m.intMDFree = m.cycle + 1
		return m.cfg.IntMultLat, true
	case isa.ClassIntDiv:
		if m.intMDFree > m.cycle {
			return 0, false
		}
		m.intMDFree = m.cycle + m.cfg.IntDivLat
		return m.cfg.IntDivLat, true
	case isa.ClassFPAdd:
		if m.fpAddUsed >= m.cfg.FPAdders {
			return 0, false
		}
		m.fpAddUsed++
		return m.cfg.FPAddLat, true
	case isa.ClassFPMult:
		if m.fpMDFree > m.cycle {
			return 0, false
		}
		m.fpMDFree = m.cycle + 1
		return m.cfg.FPMultLat, true
	case isa.ClassFPDiv:
		if m.fpMDFree > m.cycle {
			return 0, false
		}
		m.fpMDFree = m.cycle + m.cfg.FPDivLat
		return m.cfg.FPDivLat, true
	case isa.ClassLoad, isa.ClassStore:
		if m.ldstUsed >= m.cfg.LdStUnits {
			return 0, false
		}
		m.ldstUsed++
		return m.cfg.LoadLat, true
	}
	return m.cfg.IntALULat, true
}

// issue selects up to IssueWidth instructions among those whose
// operands are all available, oldest first. The in-order model stops at
// the first instruction that cannot issue (stall-on-hazard, Table 1),
// which an older one whose operands are yet to be produced or yet to
// become available is.
func (m *Machine) issue() {
	r := m.rob
	issued := 0
	for idx := r.first(setReady); idx >= 0 && issued < m.cfg.IssueWidth; idx = r.after(setReady, idx) {
		if m.cfg.InOrder && r.first(setUnissued) != idx {
			return
		}
		e := r.at(idx)
		canIssue := !(m.cfg.InOrder && m.wawHazard(idx, e))
		if canIssue && e.isLoad && !m.olderStoreAddrsKnown(idx) {
			canIssue = false
		}
		var lat int64
		if canIssue {
			lat, canIssue = m.acquireFU(e)
		}
		if !canIssue {
			if m.cfg.InOrder {
				return
			}
			continue
		}
		issued++
		m.stats.Issued++
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KIssue, e.pc, e.inst, lat)
		}
		r.sets[setReady].remove(idx)
		r.sets[setUnissued].remove(idx)
		m.execute(idx, e, lat)
	}
}

// executing puts an issued entry on its functional unit until doneAt.
// When a computation's latency elapses nothing happens but that commit
// may now retire it, and commit reads doneAt itself: only control
// instructions, which resolve then, are parked for complete, and any
// instruction while a tracer wants its completion event on its cycle
// (emitted at issue, it would be recorded for one squashed first).
func (m *Machine) executing(idx int, e *robEntry, doneAt int64) {
	e.doneAt = doneAt
	if !e.isCtrl && m.tracer == nil {
		e.state = sDone
		return
	}
	e.state = sExecuting
	m.rob.park(wheelDone, idx, max(doneAt, m.cycle+1), m.cycle)
}

// requesting sends a memory operation whose address is generated to
// the memory stage, which sees it from next cycle on.
func (m *Machine) requesting(idx int, e *robEntry) {
	e.state, e.memReqAt = sMemReq, m.cycle+1
	m.rob.park(wheelMem, idx, e.memReqAt, m.cycle)
}

// execute computes an issued instruction's results (execution-driven:
// actual values, even on wrong paths) and schedules its completion.
func (m *Machine) execute(idx int, e *robEntry, lat int64) {
	in := e.inst
	switch e.class {
	case isa.ClassBranch:
		rs, rt := e.srcs[0].val, uint64(0)
		if e.nsrc > 1 {
			rt = e.srcs[1].val
		}
		taken := isa.BranchTaken(in, rs, rt)
		e.nextPC = e.pc + isa.InstBytes
		if taken {
			e.nextPC = in.Target
		}
		e.actualTaken(taken)
		m.executing(idx, e, m.cycle+lat)

	case isa.ClassJump:
		switch in.Op {
		case isa.J:
			e.nextPC = in.Target
		case isa.Jal:
			e.nextPC = in.Target
			m.setDest(idx, e, 0, e.pc+isa.InstBytes, m.cycle+lat)
		case isa.Jr:
			e.nextPC = e.srcs[0].val
		case isa.Jalr:
			e.nextPC = e.srcs[0].val
			m.setDest(idx, e, 0, e.pc+isa.InstBytes, m.cycle+lat)
		}
		m.executing(idx, e, m.cycle+lat)

	case isa.ClassLoad:
		base := e.srcs[0].val
		idxv := uint64(0)
		if in.Mode == isa.AMReg {
			idxv = e.srcs[1].val
		}
		addr, newBase, upd := isa.EffAddr(in, base, idxv)
		e.effAddr = addr
		e.addrReady = true
		if upd {
			// The base update is ready at address generation.
			m.setDest(idx, e, 1, newBase, m.cycle+1)
		}
		m.requesting(idx, e)
		m.stats.IssuedMem++

	case isa.ClassStore:
		base := e.srcs[1].val
		idxv := uint64(0)
		if in.Mode == isa.AMReg {
			idxv = e.srcs[2].val
		}
		addr, newBase, upd := isa.EffAddr(in, base, idxv)
		e.effAddr = addr
		e.addrReady = true
		m.rob.sets[setStoreUnknown].remove(idx)
		m.rob.sets[setStoreKnown].add(idx)
		if upd {
			m.setDest(idx, e, 0, newBase, m.cycle+1)
		}
		m.requesting(idx, e)
		m.stats.IssuedMem++

	default: // integer and FP computation
		rs, rt := uint64(0), uint64(0)
		if e.nsrc > 0 {
			rs = e.srcs[0].val
		}
		if e.nsrc > 1 {
			rt = e.srcs[1].val
		}
		m.setDest(idx, e, 0, isa.ALUEval(in, rs, rt, e.pc), m.cycle+lat)
		m.executing(idx, e, m.cycle+lat)
	}
}

// memExecute advances memory operations past address generation: the
// page-table walk of a missed access that has become the oldest
// instruction, then, in instruction age order (so port arbitration
// favors the earliest issued instruction), the TLB request,
// store-forwarding and data-cache access of the operations that may
// request this cycle, and the data capture of translated stores whose
// value has arrived.
func (m *Machine) memExecute() {
	r := m.rob
	if h := r.headEntry(); h != nil && h.state == sMemWalk {
		m.advanceWalk(r.head, h)
	}
	// A device whose every request takes a real port or bank answers
	// NoPort, and does nothing else, to a request that finds its port or
	// bank taken: those requests are counted, not made, and a tracer gets
	// the event translate would have emitted.
	var rejected uint64
	for idx := r.first(setMem); idx >= 0 && m.err == nil; idx = r.after(setMem, idx) {
		e := r.at(idx)
		switch {
		case e.state == sStoreData:
			if e.doneAt < m.cycle {
				e.doneAt = m.cycle
			}
			m.completeStore(idx, e)
		case m.counted != nil && m.counted.Busy(e.effAddr>>m.pageBits):
			rejected++
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, pipetrace.KTLBNoPort, e.pc, e.inst, 0)
			}
		default:
			m.memRequest(idx, e)
		}
	}
	if rejected > 0 {
		m.counted.Reject(rejected)
		m.stats.TLBRetries += rejected
	}
}

// advanceWalk handles the oldest instruction, e in slot idx, when its
// translation has missed the TLB. Per Section 4.1, the walk begins only
// when the instruction is no longer speculative (it has reached the ROB
// head, i.e. all earlier-issued instructions have completed) and takes
// a fixed TLBMissLatency; until then a missed access is in no
// scheduler set, and becoming the head is the event that brings it
// here.
func (m *Machine) advanceWalk(idx int, e *robEntry) {
	if !e.walking {
		e.walking = true
		e.walkDone = m.cycle + m.cfg.TLBMissLatency
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KWalkStart, e.pc, e.inst, m.cfg.TLBMissLatency)
		}
		return
	}
	m.stats.TLBWalkCycles++
	if m.cycle < e.walkDone {
		return
	}
	vpn := e.effAddr >> m.pageBits
	if _, err := m.DTLB.Fill(vpn, m.cycle); err != nil {
		m.err = fmt.Errorf("cpu: pc 0x%x %s addr 0x%x: %w", e.pc, e.inst, e.effAddr, err)
		return
	}
	if m.tracer != nil {
		m.tracer.Emit(e.seq, m.cycle, pipetrace.KWalkEnd, e.pc, e.inst, m.cfg.TLBMissLatency)
	}
	e.walking = false
	// Younger instructions that missed on the same page were waiting on
	// this walk; send them back to the TLB with it, next cycle, rather
	// than walking again.
	r := m.rob
	for n, j := r.count, idx; n > 0; n, j = n-1, r.inc(j) {
		if o := r.at(j); o.state == sMemWalk && o.effAddr>>m.pageBits == vpn {
			m.requesting(j, o)
		}
	}
}

func offHiOf(in *isa.Inst) uint8 {
	if in.IsLoad() && in.Mode == isa.AMImm {
		return uint8(uint16(in.Imm)>>12) & 0xF
	}
	return 0
}

// memRequest performs one attempt at translating and accessing memory
// for a load or store whose address is generated. With a virtual-
// address cache the cache is probed by virtual address first, and the
// translation device is involved only when the access misses the cache.
func (m *Machine) memRequest(idx int, e *robEntry) {
	vc := m.cfg.VirtualCache
	var val uint64
	var forwarded bool
	if vc && e.isLoad {
		// Store-forwarding is entirely virtual: a forwarded load needs
		// no translation at all in this organization.
		var wait bool
		if val, forwarded, wait = m.forwardFromStore(idx, e); wait {
			return
		}
		if forwarded {
			m.completeLoad(idx, e, val, m.cycle+1)
			return
		}
	}

	pte, extra, ok := m.translate(idx, e, vc)
	if !ok {
		return
	}
	need := vm.PermRead
	if e.isStore {
		need = vm.PermWrite
	}
	if pte.Perm&need != need {
		// Protection fault: fatal if this instruction commits;
		// wrong-path faults are squashed harmlessly.
		e.setFaulted()
		m.finishMem(idx, e)
		e.doneAt = m.cycle + 1
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KFault, e.pc, e.inst, 0)
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KComplete, e.pc, e.inst, 0)
		}
		return
	}
	e.paddr = pte.PFN<<m.pageBits | (e.effAddr & m.pageMask)

	if e.isStore {
		// Translated: the address is in the store queue. The store
		// completes once its data value arrives; the data-cache write
		// happens at commit.
		e.doneAt = m.cycle + 1 + extra
		if m.storeDataReady(e) {
			m.completeStore(idx, e)
			return
		}
		// Delivered but not yet available, the value has a cycle to be
		// parked until; not yet produced, its delivery is the event
		// that parks the store (setDest).
		e.state = sStoreData
		m.rob.sets[setMem].remove(idx)
		if e.srcs[0].producer < 0 {
			m.rob.park(wheelMem, idx, e.dataAt, m.cycle)
		}
		return
	}

	// Load: try store-forwarding from the youngest older overlapping
	// store, else access the data cache.
	cacheAddr := e.effAddr
	if !vc {
		cacheAddr = e.paddr
		var wait bool
		if val, forwarded, wait = m.forwardFromStore(idx, e); wait {
			// Re-requesting next cycle re-translates, which is what a
			// replayed access does.
			return
		}
	}
	var extraCache int64
	if !forwarded {
		extraCache, ok = m.dcache.Access(cacheAddr, false, m.cycle)
		if !ok {
			m.stats.DCacheRetries++
			if m.tracer != nil {
				m.tracer.Emit(e.seq, m.cycle, pipetrace.KDCachePort, e.pc, e.inst, 0)
			}
			return // no data-cache port; retry next cycle
		}
		val = m.readMem(e.paddr, e.memWidth)
		if m.tracer != nil {
			k := pipetrace.KDCacheHit
			if extraCache > 0 {
				k = pipetrace.KDCacheMiss
			}
			m.tracer.Emit(e.seq, m.cycle, k, e.pc, e.inst, extraCache)
		}
	}
	m.completeLoad(idx, e, val, m.cycle+1+extra+extraCache)
}

// translate obtains e's page-table entry and the translation's extra
// latency. ok is false when the request must be retried (no TLB port)
// or has become a page-table walk. A virtual-address cache hit needs
// only the permission bits, read from the page table at no cost —
// unless a wrong-path access warmed the line before its page was ever
// mapped, when the translating path is taken so a correct-path access
// takes the walk.
func (m *Machine) translate(idx int, e *robEntry, vc bool) (pte *vm.PTE, extra int64, ok bool) {
	vpn := e.effAddr >> m.pageBits
	if vc && m.dcache.Probe(e.effAddr) {
		if pte, ok := m.AS.Probe(vpn); ok {
			return pte, 0, true
		}
	}
	res := m.DTLB.Lookup(tlb.Request{
		VPN:   vpn,
		Write: e.isStore,
		Base:  e.inst.Rs,
		OffHi: offHiOf(e.inst),
		Load:  e.isLoad,
	}, m.cycle)
	switch res.Outcome {
	case tlb.NoPort:
		m.stats.TLBRetries++
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KTLBNoPort, e.pc, e.inst, 0)
		}
		return nil, 0, false
	case tlb.Miss:
		// Nothing visits a missed access until it is the oldest
		// instruction (memExecute) or a walk of its page completes
		// (advanceWalk).
		e.state = sMemWalk
		e.walking = false
		m.rob.sets[setMem].remove(idx)
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KTLBMiss, e.pc, e.inst, 0)
		}
		if !e.missCharged() {
			e.setMissCharged()
			m.tlbMissOutstanding++
		}
		return nil, 0, false
	}
	m.stats.TransExtra.Observe(transExtraBounds, res.Extra)
	if m.tracer != nil {
		m.tracer.Emit(e.seq, m.cycle, pipetrace.KTLBHit, e.pc, e.inst, res.Extra)
	}
	return res.PTE, res.Extra, true
}

// finishMem takes entry idx, which the memory stage is visiting, out of
// that stage's set: the operation is sDone.
func (m *Machine) finishMem(idx int, e *robEntry) {
	e.state = sDone
	m.rob.sets[setMem].remove(idx)
}

// completeLoad delivers a load's raw value, available at cycle done.
func (m *Machine) completeLoad(idx int, e *robEntry, raw uint64, done int64) {
	m.setDest(idx, e, 0, isa.LoadExtend(e.inst.Op, raw), done)
	m.finishMem(idx, e)
	e.doneAt = done
	if m.tracer != nil {
		m.tracer.Emit(e.seq, m.cycle, pipetrace.KComplete, e.pc, e.inst, done-m.cycle)
	}
}

// completeStore captures a translated store's data value; the store is
// then eligible to commit (from doneAt on).
func (m *Machine) completeStore(idx int, e *robEntry) {
	e.storeVal = e.srcs[0].val
	m.finishMem(idx, e)
	if m.tracer != nil {
		m.tracer.Emit(e.seq, m.cycle, pipetrace.KComplete, e.pc, e.inst, 0)
	}
}

// forwardFromStore searches older in-flight stores for one covering
// this load. The youngest older store that overlaps it decides: an
// exact address+width match whose data is captured forwards the raw
// value; a partial overlap, or data not yet captured, forces the load
// to wait (mustWait, counted as a replay) until the store commits.
func (m *Machine) forwardFromStore(idx int, e *robEntry) (val uint64, ok, mustWait bool) {
	r := m.rob
	lo, hi := e.effAddr, e.effAddr+uint64(e.memWidth)
	for j := r.before(r.sets[setStoreKnown], idx); j >= 0; j = r.before(r.sets[setStoreKnown], j) {
		o := r.at(j)
		slo, shi := o.effAddr, o.effAddr+uint64(o.memWidth)
		if hi <= slo || shi <= lo {
			continue
		}
		if slo == lo && o.memWidth == e.memWidth && o.state == sDone {
			return o.storeVal, true, false
		}
		m.stats.StoreWaits++
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KStoreWait, e.pc, e.inst, 0)
		}
		return 0, false, true
	}
	return 0, false, false
}

// complete finishes executing instructions whose latency has elapsed
// and resolves control flow, triggering misprediction recovery.
func (m *Machine) complete() {
	r := m.rob
	for idx := r.first(setDue); idx >= 0; idx = r.after(setDue, idx) {
		e := r.at(idx)
		e.state = sDone
		r.sets[setDue].remove(idx)
		if m.tracer != nil {
			m.tracer.Emit(e.seq, m.cycle, pipetrace.KComplete, e.pc, e.inst, 0)
		}
		if e.isCtrl && !e.resolved {
			e.resolved = true
			m.resolveControl(idx, e)
			if e.nextPC != e.predNextPC {
				m.recover(idx, e)
				return
			}
		}
	}
}

// resolveControl trains the predictor with the actual outcome.
func (m *Machine) resolveControl(idx int, e *robEntry) {
	in := e.inst
	if in.IsCondBranch() {
		taken := e.takenActual()
		correct := m.pred.Resolve(e.pc, e.predTaken, taken, e.ghrSnap)
		m.stats.BranchLookups++
		if correct {
			m.stats.BranchCorrect++
		}
		if taken {
			m.pred.UpdateTarget(e.pc, e.nextPC)
		}
		return
	}
	if in.Op == isa.Jr || in.Op == isa.Jalr {
		// Indirect jumps count against the prediction rate: their
		// target comes from the BTB and is frequently wrong for
		// interpreter-style dispatch.
		m.stats.BranchLookups++
		if e.nextPC == e.predNextPC {
			m.stats.BranchCorrect++
		}
		m.pred.UpdateTarget(e.pc, e.nextPC)
	}
}

// recover squashes everything younger than the mispredicted control
// instruction, rebuilds the rename map and queue occupancy from the
// surviving entries, and redirects fetch with the misprediction
// penalty.
func (m *Machine) recover(idx int, e *robEntry) {
	if m.tracer != nil {
		for n, j := m.rob.count-m.rob.pos(idx)-1, idx; n > 0; n-- {
			j = m.rob.inc(j)
			o := m.rob.at(j)
			m.tracer.Emit(o.seq, m.cycle, pipetrace.KSquash, o.pc, o.inst, 0)
		}
	}
	n := m.rob.squashAfter(idx)
	m.stats.Squashed += uint64(n)
	m.stats.SquashRecoveries++

	for r := range m.rename {
		m.rename[r] = -1
	}
	m.lsqCount = 0
	m.tlbMissOutstanding = 0
	for i := m.rob.head; ; i = m.rob.inc(i) {
		o := m.rob.at(i)
		for s := 0; s < o.ndest; s++ {
			if o.dests[s].reg != isa.Zero {
				m.rename[o.dests[s].reg] = int32(i)
				m.renameSlot[o.dests[s].reg] = int8(s)
			}
		}
		if o.isLoad || o.isStore {
			m.lsqCount++
		}
		if o.missCharged() {
			m.tlbMissOutstanding++
		}
		if i == idx {
			break // the mispredicted instruction is now the youngest
		}
	}

	m.flushFetchQ()
	m.haltPending = false
	m.fetchPC = e.nextPC
	stall := m.cycle + m.pred.MispredictPenalty() - 1
	if stall > m.fetchStallUntil {
		m.fetchStallUntil = stall
		m.fetchStallCause = stallRedirect
	}
}
