package pipetrace

import (
	"sort"

	"hbat/internal/isa"
)

// life is one instruction's reconstructed lifetime: the cycle each
// pipeline stage event was observed (-1 when the event fell outside the
// recording window or the buffer) plus its translation/memory detail.
type life struct {
	seq  int64
	pc   uint64
	inst *isa.Inst

	fetch, dispatch, issue, complete, commit, squash int64

	fault      bool
	tlbMisses  int
	walkCycles int64
	noPorts    int   // TLB-port rejections (retried cycles)
	cachePorts int   // data-cache port rejections
	storeWaits int   // store-forward wait replays
	dcacheMiss int   // data-cache misses
	tlbExtra   int64 // extra translation latency on hits
}

func (l *life) disasm() string {
	if l.inst == nil {
		return "?"
	}
	return l.inst.String()
}

// retired reports the cycle the instruction left the pipeline (commit
// or squash; -1 while still in flight at the end of the window).
func (l *life) retired() int64 {
	if l.commit >= 0 {
		return l.commit
	}
	return l.squash
}

// lifetimes groups events by sequence number into per-instruction
// lifetimes, ordered by seq. minCycle/maxCycle span the whole event
// set.
func lifetimes(events []Event) (lives []*life, minCycle, maxCycle int64) {
	if len(events) == 0 {
		return nil, 0, 0
	}
	minCycle, maxCycle = events[0].Cycle, events[0].Cycle
	bySeq := make(map[int64]*life)
	var order []int64
	for i := range events {
		ev := &events[i]
		if ev.Cycle < minCycle {
			minCycle = ev.Cycle
		}
		if ev.Cycle > maxCycle {
			maxCycle = ev.Cycle
		}
		l := bySeq[ev.Seq]
		if l == nil {
			l = &life{seq: ev.Seq, pc: ev.PC, inst: ev.Inst,
				fetch: -1, dispatch: -1, issue: -1, complete: -1, commit: -1, squash: -1}
			bySeq[ev.Seq] = l
			order = append(order, ev.Seq)
		}
		if l.inst == nil {
			l.inst = ev.Inst
		}
		switch ev.Kind {
		case KFetch:
			l.fetch = ev.Cycle
		case KDispatch:
			l.dispatch = ev.Cycle
		case KIssue:
			l.issue = ev.Cycle
		case KComplete:
			l.complete = ev.Cycle
		case KCommit:
			l.commit = ev.Cycle
		case KSquash:
			l.squash = ev.Cycle
		case KFault:
			l.fault = true
		case KTLBHit:
			l.tlbExtra += ev.Arg
		case KTLBMiss:
			l.tlbMisses++
		case KTLBNoPort:
			l.noPorts++
		case KWalkEnd:
			l.walkCycles += ev.Arg
		case KDCacheMiss:
			l.dcacheMiss++
		case KDCachePort:
			l.cachePorts++
		case KStoreWait:
			l.storeWaits++
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	lives = make([]*life, len(order))
	for i, seq := range order {
		lives[i] = bySeq[seq]
	}
	return lives, minCycle, maxCycle
}
