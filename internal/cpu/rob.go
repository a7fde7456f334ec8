package cpu

import (
	"math/bits"

	"hbat/internal/isa"
)

// entry states.
const (
	sWaiting   uint8 = iota // in ROB, a source's producer has yet to execute
	sReady                  // every issue operand delivered; issues from readyAt
	sExecuting              // on a functional unit; result at doneAt
	sMemReq                 // memory op: address generated, needs TLB+cache
	sMemWalk                // memory op: TLB miss detected, awaiting walk
	sStoreData              // store: translated, waiting for its data value
	sDone                   // complete; eligible to commit
	numStates
)

// dest is one destination register write carried by a ROB entry.
// Post-update memory operations have two (value and new base), with
// independent ready times: the base update is ready at address
// generation, the load value when memory responds.
type dest struct {
	reg     isa.Reg
	val     uint64
	readyAt int64
}

// operand is a source value: delivered (producer < 0, val holds it) or
// linked to the destination of a ROB producer that has yet to execute,
// which delivers it when it does (Machine.setDest).
type operand struct {
	val      uint64
	producer int32 // ROB slot index, -1 = delivered
	slot     int8  // producer's destination slot
}

// robEntry is one in-flight instruction.
type robEntry struct {
	inst *isa.Inst // nil: a wrong-path fetch from outside the text segment
	robBody
}

// robBody is everything in a robEntry but the instruction pointer.
// push clears one per dynamic instruction, so it holds no pointer (the
// clear then needs no GC write barrier) and is kept small, and what the
// per-cycle stages test on every visit — the times, the state, the
// flags — comes first, inside the entry's first cache line.
type robBody struct {
	seq    int64
	pc     uint64
	doneAt int64

	// Wakeup state. pending counts the linked operands issue waits for
	// (all of them; for a store its address operands, srcs[1:]);
	// readyAt is the latest ready time among those delivered so far.
	// A store's data operand, srcs[0], is tracked apart, in dataAt.
	readyAt int64
	dataAt  int64

	state     uint8
	pending   uint8
	flags     uint8
	memWidth  uint8 // access width in bytes
	isCtrl    bool
	predTaken bool
	resolved  bool
	isLoad    bool
	isStore   bool
	addrReady bool
	walking   bool

	// Memory.
	memReqAt int64 // first cycle the TLB/cache request may be made
	effAddr  uint64
	paddr    uint64
	storeVal uint64
	walkDone int64 // cycle the page-table walk completes (sMemWalk)

	nsrc  int
	ndest int
	srcs  [3]operand
	dests [2]dest

	// Control.
	predNextPC uint64
	nextPC     uint64 // actual (set at execute)
	ghrSnap    uint64
}

// robEntry flag bits.
const (
	fTaken       uint8 = 1 << iota // conditional branch actually taken
	fMissCharged                   // counted in tlbMissOutstanding
	fFaulted                       // protection fault (fatal if committed)
)

func (e *robEntry) actualTaken(t bool) {
	if t {
		e.flags |= fTaken
	} else {
		e.flags &^= fTaken
	}
}
func (e *robEntry) takenActual() bool { return e.flags&fTaken != 0 }
func (e *robEntry) setMissCharged()   { e.flags |= fMissCharged }
func (e *robEntry) missCharged() bool { return e.flags&fMissCharged != 0 }
func (e *robEntry) setFaulted()       { e.flags |= fFaulted }
func (e *robEntry) faulted() bool     { return e.flags&fFaulted != 0 }

// slotSet is a set of ROB slot indices, one bit per slot (one word for
// the 64-entry Table 1 machine).
type slotSet []uint64

func (s slotSet) add(i int)    { s[i>>6] |= 1 << (i & 63) }
func (s slotSet) remove(i int) { s[i>>6] &^= 1 << (i & 63) }

// nextIn returns the lowest member in [lo, hi), or -1.
func (s slotSet) nextIn(lo, hi int) int {
	for lo < hi {
		w := lo >> 6
		if word := s[w] >> (lo & 63); word != 0 {
			if i := lo + bits.TrailingZeros64(word); i < hi {
				return i
			}
			return -1
		}
		lo = (w + 1) << 6
	}
	return -1
}

// The scheduler sets: which slots are in which scheduler state. The
// three memory states share one set (the memory stage visits them
// together); stores are additionally in exactly one of the two
// store-address sets from dispatch until they leave the ROB.
const (
	setWaiting      = iota // sWaiting
	setReady               // sReady
	setExecuting           // sExecuting
	setMem                 // sMemReq, sMemWalk, sStoreData
	setStoreUnknown        // stores whose address is not yet generated
	setStoreKnown          // stores whose address is generated
	numSets
	setNone = numSets // sDone: nothing scans for it
)

var stateSet = [numStates]int{
	sWaiting: setWaiting, sReady: setReady, sExecuting: setExecuting,
	sMemReq: setMem, sMemWalk: setMem, sStoreData: setMem,
	sDone: setNone,
}

// rob is a ring buffer of in-flight instructions in program order,
// plus the scheduler sets that let each pipeline stage visit only the
// entries that can act.
type rob struct {
	entries []robEntry
	head    int // oldest
	count   int

	// sets[numSets] is a write-only sink, so setState needs no branch
	// for sDone; kept is squashAfter's scratch mask.
	sets [numSets + 1]slotSet
	kept slotSet

	// cons holds one slotSet per destination of every slot: the
	// consumers linked to it (see consumers).
	cons []uint64
}

func newROB(size int) *rob {
	r := &rob{entries: make([]robEntry, size)}
	words := (size + 63) / 64
	backing := make([]uint64, (len(r.sets)+1+2*size)*words)
	for i := range r.sets {
		r.sets[i], backing = backing[:words:words], backing[words:]
	}
	r.kept, r.cons = backing[:words:words], backing[words:]
	return r
}

// consumers returns the set of slots with an operand linked to
// destination slot of entry idx. It empties when that destination's
// value is delivered, so a retiring entry's sets are empty.
func (r *rob) consumers(idx, slot int) slotSet {
	words := len(r.kept)
	i := (idx*2 + slot) * words
	return r.cons[i : i+words]
}

func (r *rob) full() bool  { return r.count == len(r.entries) }
func (r *rob) empty() bool { return r.count == 0 }

// inc returns the slot after idx in ring order.
func (r *rob) inc(idx int) int {
	if idx++; idx == len(r.entries) {
		return 0
	}
	return idx
}

// pos returns slot idx's distance from the head (0 = oldest).
func (r *rob) pos(idx int) int {
	if idx < r.head {
		return idx - r.head + len(r.entries)
	}
	return idx - r.head
}

// push allocates the next entry, cleared but for inst and in no
// scheduler set, and returns its slot index; the caller sets inst and
// gives the entry a state with setState.
func (r *rob) push() int {
	idx := r.head + r.count
	if idx >= len(r.entries) {
		idx -= len(r.entries)
	}
	r.count++
	e := &r.entries[idx]
	e.robBody = robBody{}
	e.state = sDone
	return idx
}

// pop retires the head entry, which is sDone and so in no state set.
func (r *rob) pop() {
	r.sets[setStoreKnown].remove(r.head)
	r.head = r.inc(r.head)
	r.count--
}

// at returns the entry at slot idx.
func (r *rob) at(idx int) *robEntry { return &r.entries[idx] }

// headEntry returns the oldest entry (nil when empty).
func (r *rob) headEntry() *robEntry {
	if r.count == 0 {
		return nil
	}
	return &r.entries[r.head]
}

// setState moves slot idx to state s and between the state sets.
func (r *rob) setState(idx int, s uint8) {
	e := &r.entries[idx]
	r.sets[stateSet[e.state]].remove(idx)
	r.sets[stateSet[s]].add(idx)
	e.state = s
}

// first returns the oldest member of set, or -1. Members are always
// live slots, so the ring's two segments are searched whole.
func (r *rob) first(set int) int {
	if i := r.sets[set].nextIn(r.head, len(r.entries)); i >= 0 {
		return i
	}
	return r.sets[set].nextIn(0, r.head)
}

// after returns the oldest member of set younger than slot idx, or -1.
// It reads the set as it is now, so a stage iterating with first/after
// sees the transitions it makes itself exactly as a slot-by-slot scan
// re-reading each entry's state would.
func (r *rob) after(set, idx int) int {
	s := r.sets[set]
	if idx < r.head {
		return s.nextIn(idx+1, r.head)
	}
	if i := s.nextIn(idx+1, len(r.entries)); i >= 0 {
		return i
	}
	return s.nextIn(0, r.head)
}

// anyOlder reports whether set has a member older than slot idx.
func (r *rob) anyOlder(set, idx int) bool {
	i := r.first(set)
	return i >= 0 && r.olderThan(i, idx)
}

// squashAfter drops every entry younger than slot keepIdx from the
// ring and from every set, and returns how many were squashed.
func (r *rob) squashAfter(keepIdx int) int {
	pos := r.pos(keepIdx)
	squashed := r.count - pos - 1
	r.count = pos + 1
	clear(r.kept)
	for i, idx := 0, r.head; i < r.count; i, idx = i+1, r.inc(idx) {
		r.kept.add(idx)
	}
	for _, s := range r.sets[:numSets] {
		for w := range s {
			s[w] &= r.kept[w]
		}
	}
	for i := 0; i < len(r.cons); i += len(r.kept) {
		for w, k := range r.kept {
			r.cons[i+w] &= k
		}
	}
	return squashed
}

// olderThan reports whether slot a holds an older instruction than b.
func (r *rob) olderThan(a, b int) bool { return r.pos(a) < r.pos(b) }
