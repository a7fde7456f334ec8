package cpu

import (
	"hbat/internal/isa"
	"hbat/internal/ptrace"
	"hbat/internal/tlb"
)

// fetch models the front end of Table 1 with the collapsing-buffer
// variant of Section 4.1: up to FetchWidth instructions per cycle from
// a single instruction-cache block, with up to MaxBranchesPerFetch
// control-flow predictions; a predicted-taken branch whose target falls
// in the same block keeps the fetch run going ("collapsing").
func (m *Machine) fetch() {
	if m.haltPending {
		return
	}
	if m.cycle < m.fetchStallUntil {
		m.stats.FetchStallCycles++
		m.countFetchStall()
		return
	}
	if m.fetchQLen() >= m.cfg.FetchQueue {
		m.metrics.count[cStallQueueFull].Inc()
		return
	}
	blockMask := uint64(m.icache.BlockBytes() - 1)
	block := m.fetchPC &^ blockMask

	// Optional micro-ITLB: one fetch translation per cycle; a miss
	// stalls the front end while the translation is refilled.
	if m.itlb != nil {
		vpn := m.fetchPC >> m.pageBits
		m.stats.ITLBAccesses++
		if _, ok := m.itlb.Lookup(vpn, m.cycle); !ok {
			m.stats.ITLBMisses++
			if m.tracer != nil {
				m.tracer.Emit(-1, m.cycle, ptrace.KITLBMiss, m.fetchPC, nil, 0)
			}
			if m.cfg.UnifiedTLB {
				// The refill goes through the shared translation
				// device, competing with data requests for a port.
				res := m.DTLB.Lookup(tlb.Request{VPN: vpn}, m.cycle)
				switch res.Outcome {
				case tlb.NoPort:
					// Retry next cycle; the data side kept the ports.
					m.stats.ITLBRefillRejects++
					m.stats.ITLBMisses-- // counted again on the retry
					m.stats.ITLBAccesses--
					return
				case tlb.Miss:
					// Code pages are in the page table (the loader put
					// them there); a shared-TLB capacity miss still
					// costs a full walk.
					if _, err := m.DTLB.Fill(vpn, m.cycle); err != nil {
						// Wrong-path fetch outside any region: treat as
						// unmapped; the bogus path will be squashed.
						m.fetchStallUntil = m.cycle + m.cfg.ITLBRefillLatency
						m.fetchStallCause = stallITLBMiss
						m.itlb.Insert(vpn, nil, m.cycle)
						return
					}
					m.itlb.Insert(vpn, nil, m.cycle)
					m.fetchStallUntil = m.cycle + m.cfg.TLBMissLatency
					m.fetchStallCause = stallITLBMiss
					return
				default:
					m.itlb.Insert(vpn, nil, m.cycle)
					m.fetchStallUntil = m.cycle + m.cfg.ITLBRefillLatency + res.Extra
					m.fetchStallCause = stallITLBMiss
					return
				}
			}
			m.itlb.Insert(vpn, nil, m.cycle)
			m.fetchStallUntil = m.cycle + m.cfg.ITLBRefillLatency
			m.fetchStallCause = stallITLBMiss
			return
		}
	}

	// One I-cache block access per fetch cycle.
	if extra := m.icache.AccessUnported(m.fetchPaddr(m.fetchPC), false, m.cycle); extra > 0 {
		m.fetchStallUntil = m.cycle + extra
		m.fetchStallCause = stallICacheMiss
		return
	}

	branches := 0
	pc := m.fetchPC
	for n := 0; n < m.cfg.FetchWidth && m.fetchQLen() < m.cfg.FetchQueue; n++ {
		if pc&^blockMask != block {
			break
		}
		in := m.prog.InstAt(pc)
		// Field by field: one pointer store, not a struct copy the GC
		// has to be told about.
		fi := m.fetchSlot()
		fi.pc, fi.inst, fi.predNextPC, fi.fetchCycle = pc, in, pc+isa.InstBytes, m.cycle
		fi.predTaken, fi.ghrSnap = false, 0

		if in != nil {
			switch in.Class() {
			case isa.ClassBranch:
				if branches >= m.cfg.MaxBranchesPerFetch {
					// Prediction budget exhausted; this branch waits
					// for next cycle.
					m.fetchPC = pc
					return
				}
				branches++
				taken, snap := m.pred.PredictDir(pc)
				fi.predTaken, fi.ghrSnap = taken, snap
				if taken {
					fi.predNextPC = in.Target
				}
			case isa.ClassJump:
				if branches >= m.cfg.MaxBranchesPerFetch {
					m.fetchPC = pc
					return
				}
				branches++
				switch in.Op {
				case isa.J, isa.Jal:
					// Direct targets are available from the decoded
					// instruction; no prediction needed.
					fi.predNextPC = in.Target
				case isa.Jr, isa.Jalr:
					// Indirect: predict through the BTB; on a BTB miss
					// fetch falls through and the (near-certain)
					// misprediction is repaired at execute.
					if tgt, ok := m.pred.PredictTarget(pc); ok {
						fi.predNextPC = tgt
					}
				}
			case isa.ClassHalt:
				m.fetchQCount++
				m.stats.Fetched++
				m.haltPending = true
				m.fetchPC = pc + isa.InstBytes
				return
			}
		}

		m.fetchQCount++
		m.stats.Fetched++
		pc = fi.predNextPC
	}
	m.fetchPC = pc
}

// The fetch queue is a fixed ring of FetchQueue slots.

func (m *Machine) fetchQLen() int { return m.fetchQCount }

// fetchSlot returns the slot the next fetched instruction goes in;
// fetch fills it and then counts it in. The queue must not be full.
func (m *Machine) fetchSlot() *fetchedInst {
	tail := m.fetchQHead + m.fetchQCount
	if tail >= len(m.fetchQ) {
		tail -= len(m.fetchQ)
	}
	return &m.fetchQ[tail]
}

func (m *Machine) peekFetched() *fetchedInst {
	if m.fetchQCount == 0 {
		return nil
	}
	return &m.fetchQ[m.fetchQHead]
}

// popFetched drops the oldest entry; a pointer peekFetched returned to
// it stays readable until the next fetch.
func (m *Machine) popFetched() {
	if m.fetchQHead++; m.fetchQHead == len(m.fetchQ) {
		m.fetchQHead = 0
	}
	m.fetchQCount--
}

func (m *Machine) flushFetchQ() { m.fetchQHead, m.fetchQCount = 0, 0 }
