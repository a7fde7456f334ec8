package cpu

import (
	"math/bits"

	"hbat/internal/isa"
)

// entry states. Each says what the entry waits for: a cycle, when it is
// parked in a wake wheel until then, or an event, when nothing visits it
// until the event's handler moves it.
const (
	sWaiting   uint8 = iota // a source's producer has yet to execute: waits for setDest's delivery
	sReady                  // every issue operand delivered: parked until readyAt, then visited by issue
	sExecuting              // on a functional unit, with something to do when the result is due: parked until doneAt, then completed
	sMemReq                 // memory op, address generated, needs TLB+cache: visited by the memory stage from memReqAt
	sMemWalk                // memory op, TLB miss detected: waits to be the oldest instruction, then walks
	sStoreData              // store, translated: waits for its data value's delivery, then parked until dataAt
	sDone                   // complete; eligible to commit
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

// robBody is everything in a robEntry but the instruction pointer, in
// two parts: push clears robSched, once per dynamic instruction, and
// leaves robData, every field of which is written before it is read.
type robBody struct {
	robSched
	robData
}

// robSched is what a fresh entry needs zero. It holds no pointer (the
// clear then needs no GC write barrier) and is kept small, and what the
// stages test on every visit — the times, the state, the flags — is all
// in it, inside the entry's first cache lines.
type robSched struct {
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
	class     isa.Class
	isCtrl    bool
	predTaken bool
	resolved  bool
	isLoad    bool
	isStore   bool
	addrReady bool
	walking   bool

	nsrc  int
	ndest int
}

// robData is written as the instruction moves on: srcs[:nsrc] and
// dests[:ndest] and the prediction at dispatch, the addresses and the
// actual next PC at execute, the rest by the memory stage.
type robData struct {
	srcs  [3]operand
	dests [2]dest

	// Memory.
	memReqAt int64 // first cycle the TLB/cache request may be made
	effAddr  uint64
	paddr    uint64
	storeVal uint64
	walkDone int64 // cycle the page-table walk completes (sMemWalk)

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

// slotSet is a set of ROB slot indices, one bit per slot: a ROB holds
// at most 64 entries (Config.ROBSize).
type slotSet uint64

func (s *slotSet) add(i int)    { *s |= 1 << (i & 63) }
func (s *slotSet) remove(i int) { *s &^= 1 << (i & 63) }

// The scheduler sets hold what a pipeline stage visits this cycle, and
// nothing that cannot act yet: an entry whose next action lies at a
// known future cycle is parked in a wake wheel until then, and one
// waiting for an event is in no set at all until the event moves it
// (see the wheels below, and ARCHITECTURE.md "Scheduler").
const (
	setUnissued     = iota // sWaiting and sReady: dispatched, not yet issued (in-order issue's oldest-first rule)
	setReady               // sReady with every operand available: issue visits these
	setDue                 // sExecuting with the latency elapsed: complete visits these, and empties it
	setMem                 // sMemReq that may request this cycle, sStoreData whose data has arrived
	setStoreUnknown        // stores whose address is not yet generated
	setStoreKnown          // stores whose address is generated, until they leave the ROB
	numSets
)

// The wake wheels: one per stage, wheelSpan buckets each, bucket
// due%wheelSpan holding the entries to move into the stage's set when
// cycle due starts.
const (
	wheelReady = iota // sReady, due at readyAt
	wheelDone         // sExecuting, due at doneAt
	wheelMem          // sStoreData with its data delivered, due at dataAt; sMemReq sent back to the TLB, due at memReqAt
	numWheels
)

// wheelSet is the set each wheel wakes its entries into.
var wheelSet = [numWheels]int{wheelReady: setReady, wheelDone: setDue, wheelMem: setMem}

// wheelSpan is how many cycles ahead a wheel reaches: a power of two,
// just past the longest Table 1 latency (the 12-cycle divides), since
// every recovery masks every bucket. The one rule for an entry due
// wheelSpan or more cycles ahead: it is parked in its due cycle's
// bucket all the same and marked far, and wake leaves a far entry in
// the bucket each time the wheel comes round until the cycle is its
// own.
const wheelSpan = 16

// rob is a ring buffer of in-flight instructions in program order,
// plus the scheduler sets and wake wheels that let each pipeline stage
// visit only the entries that can act.
type rob struct {
	entries []robEntry
	head    int // oldest
	count   int

	sets  [numSets]slotSet
	far   slotSet                        // parked entries due beyond the wheel's reach
	wheel [wheelSpan * numWheels]slotSet // see bucket

	// cons holds one slotSet per destination of every slot: the
	// consumers linked to it (see consumers).
	cons []slotSet
}

func newROB(size int) *rob {
	return &rob{entries: make([]robEntry, size), cons: make([]slotSet, 2*size)}
}

// reset empties the ring, as newROB leaves it, and drops the
// instruction pointers of the entries it held.
func (r *rob) reset() {
	clear(r.entries)
	clear(r.cons)
	*r = rob{entries: r.entries, cons: r.cons}
}

// consumers returns the set of slots with an operand linked to
// destination slot of entry idx. It empties when that destination's
// value is delivered, so a retiring entry's sets are empty.
func (r *rob) consumers(idx, slot int) *slotSet { return &r.cons[idx*2+slot] }

// bucket returns wheel's bucket for cycle due. The wheels' buckets for
// one cycle lie side by side, and the next cycle's after them: a cycle
// wakes from, and mostly parks into, one cache line.
func (r *rob) bucket(wheel int, due int64) *slotSet {
	return &r.wheel[int(due&(wheelSpan-1))*numWheels+wheel]
}

// park puts slot idx, which is in no stage set, to sleep until cycle
// due, when wake moves it into wheel's stage set; now is the current
// cycle, and due > now.
func (r *rob) park(wheel, idx int, due, now int64) {
	if due-now >= wheelSpan {
		r.far.add(idx)
	}
	r.bucket(wheel, due).add(idx)
}

// wake moves the entries due on cycle now from each wheel's bucket into
// the wheel's stage set. The tick calls it before its first stage:
// nothing parks for the cycle under way, so every stage finds its set
// as if it had woken it itself.
func (r *rob) wake(now int64) {
	for wheel, set := range wheelSet {
		b := r.bucket(wheel, now)
		due := *b
		if due == 0 {
			continue
		}
		if far := due & r.far; far != 0 {
			due &^= r.notYet(wheel, far, now)
		}
		r.sets[set] |= due
		*b &^= due
	}
}

// notYet sorts the far members of a bucket whose turn has come into
// those due now, which stop being far, and those due a whole turn of
// the wheel or more from now, which it returns.
func (r *rob) notYet(wheel int, far slotSet, now int64) (later slotSet) {
	for f := far; f != 0; f &= f - 1 {
		idx := bits.TrailingZeros64(uint64(f))
		if r.due(wheel, idx) > now {
			later |= f & -f
		} else {
			r.far.remove(idx)
		}
	}
	return later
}

// due returns the cycle slot idx, parked in wheel, is to wake on.
func (r *rob) due(wheel, idx int) int64 {
	e := &r.entries[idx]
	switch {
	case wheel == wheelReady:
		return e.readyAt
	case wheel == wheelDone:
		return e.doneAt
	case e.state == sStoreData:
		return e.dataAt
	}
	return e.memReqAt
}

func (r *rob) full() bool { return r.count == len(r.entries) }

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

// push allocates the next entry, cleared but for inst, sDone and in no
// scheduler set, and returns its slot index; the caller sets inst and
// places the entry.
func (r *rob) push() int {
	idx := r.head + r.count
	if idx >= len(r.entries) {
		idx -= len(r.entries)
	}
	r.count++
	e := &r.entries[idx]
	e.robSched = robSched{}
	e.state = sDone
	return idx
}

// pop retires the head entry, which is sDone and so in no stage set.
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

// Age order is a mask. The live slots, oldest first, are those from
// head up to the end of the ring, then those from 0 below head; a set's
// members are always live slots, so a set ANDed with a mask of slot
// positions is the set's members among them, whatever the mask says of
// dead slots.

// older returns the slots older than slot idx: every live one, and
// dead ones besides.
func (r *rob) older(idx int) slotSet {
	below := slotSet(1)<<(idx&63) - 1
	fromHead := ^(slotSet(1)<<(r.head&63) - 1)
	if idx < r.head {
		return below | fromHead
	}
	return below & fromHead
}

// first returns the oldest member of set, or -1.
func (r *rob) first(set int) int {
	s := r.sets[set]
	if old := s >> (r.head & 63) << (r.head & 63); old != 0 {
		return bits.TrailingZeros64(uint64(old))
	}
	if s != 0 {
		return bits.TrailingZeros64(uint64(s))
	}
	return -1
}

// after returns the oldest member of set younger than slot idx, or -1.
// It reads the set as it is now, so a stage iterating with first/after
// sees the transitions it makes itself exactly as a slot-by-slot scan
// re-reading each entry's state would.
func (r *rob) after(set, idx int) int {
	s := r.sets[set]
	above := s &^ (2<<(idx&63) - 1)
	below := s & (1<<(r.head&63) - 1)
	if idx < r.head {
		above &= below
		below = 0
	}
	if above != 0 {
		return bits.TrailingZeros64(uint64(above))
	}
	if below != 0 {
		return bits.TrailingZeros64(uint64(below))
	}
	return -1
}

// before returns the youngest member of s older than slot idx, or -1:
// the highest one below idx, else the highest one from head up.
func (r *rob) before(s slotSet, idx int) int {
	s &= r.older(idx)
	if lo := s & (1<<(idx&63) - 1); lo != 0 {
		return 63 - bits.LeadingZeros64(uint64(lo))
	}
	if s != 0 {
		return 63 - bits.LeadingZeros64(uint64(s))
	}
	return -1
}

// anyOlder reports whether set has a member older than slot idx.
func (r *rob) anyOlder(set, idx int) bool { return r.sets[set]&r.older(idx) != 0 }

// squashAfter drops every entry younger than slot keepIdx from the
// ring, from every set and wheel bucket, and returns how many were
// squashed.
func (r *rob) squashAfter(keepIdx int) int {
	squashed := r.count - r.pos(keepIdx) - 1
	r.count -= squashed
	kept := r.older(keepIdx) | 1<<(keepIdx&63)
	for i := range r.sets {
		r.sets[i] &= kept
	}
	r.far &= kept
	for i := range r.wheel {
		r.wheel[i] &= kept
	}
	for i := range r.cons {
		r.cons[i] &= kept
	}
	return squashed
}
