// Package pipetrace is the pipeline event tracer: a low-overhead,
// ring-buffered recorder of cycle-accurate per-instruction events
// (fetch, dispatch, issue, completion, commit, squash) and translation/
// memory-hierarchy events (TLB hit/miss/port-conflict, page-table
// walks, data-cache hits/misses/port-conflicts), keyed by the core's
// monotonically increasing instruction sequence number.
//
// The recorder is built for the simulator's hot path: a nil *Recorder
// is a valid, fully disabled tracer (every method is nil-safe and
// returns immediately), Emit never allocates (the ring buffer is
// preallocated at construction), and recording is windowed by cycle
// range so an 8-wide run over millions of cycles stays tractable.
//
// Captured traces export three ways: Chrome/Perfetto trace-event JSON
// (WritePerfetto — load the file in ui.perfetto.dev), the Konata/
// Kanata pipeline-viewer log format (WriteKonata), and a plain-text
// report of stall causes and longest-latency instructions
// (WriteSummary).
package pipetrace

import (
	"sort"

	"hbat/internal/isa"
)

// Kind classifies one pipeline event.
type Kind uint8

const (
	// Per-instruction lifetime events.
	KFetch    Kind = iota // instruction entered the fetch queue
	KDispatch             // renamed into the ROB (Arg: ROB occupancy)
	KIssue                // issued to a functional unit
	KComplete             // result ready; eligible to commit
	KCommit               // architected effects applied, entry retired
	KSquash               // squashed by misprediction recovery
	KFault                // protection fault detected (fatal if committed)

	// Translation events (data side).
	KTLBHit    // translation hit (Arg: extra latency cycles)
	KTLBMiss   // base-TLB miss; a page-table walk is required
	KTLBNoPort // rejected for want of a TLB port; retried next cycle
	KWalkStart // non-speculative page-table walk began (Arg: walk latency)
	KWalkEnd   // walk finished and the translation was filled (Arg: walk latency)

	// Data-cache events.
	KDCacheHit   // data-cache hit
	KDCacheMiss  // data-cache miss (Arg: extra latency cycles)
	KDCachePort  // rejected for want of a cache port; retried
	KStoreWait   // load replayed waiting on an older store's data/address
	KCommitRetry // store commit retried for want of a cache port

	numKinds
)

var kindNames = [numKinds]string{
	"fetch", "dispatch", "issue", "complete", "commit", "squash", "fault",
	"tlb_hit", "tlb_miss", "tlb_noport", "walk_start", "walk_end",
	"dcache_hit", "dcache_miss", "dcache_noport", "store_wait",
	"commit_store_retry",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// Event is one recorded pipeline event. Inst is the decoded instruction
// (nil for events with no instruction, e.g. a wrong-path fetch outside
// the text segment); its disassembly is rendered lazily at export so the
// recording path stays allocation-free.
type Event struct {
	Seq   int64 // instruction sequence number
	Cycle int64
	PC    uint64
	Inst  *isa.Inst
	Kind  Kind
	Arg   int64 // kind-specific detail (latency, occupancy, ...)
}

// Config parameterizes a Recorder.
type Config struct {
	// Cap is the ring-buffer capacity in events (default 1<<16). When
	// the buffer wraps, the oldest events are overwritten and counted
	// in Dropped.
	Cap int
	// Start is the first cycle recorded (values < 1 clamp to 1, the
	// first simulated cycle).
	Start int64
	// End is the last cycle recorded, inclusive (0 = no end). A window
	// with End < Start records nothing.
	End int64
}

// normalized clamps the window to the simulator's cycle domain.
func (c Config) normalized() Config {
	if c.Cap <= 0 {
		c.Cap = 1 << 16
	}
	if c.Start < 1 {
		c.Start = 1
	}
	if c.End < 0 {
		c.End = 0
	}
	return c
}

// Recorder captures events into a fixed ring buffer. The zero value is
// not usable; construct with New. A nil *Recorder is a valid disabled
// tracer: Enabled reports false and Emit is a no-op.
type Recorder struct {
	cfg     Config
	buf     []Event
	next    int
	wrapped bool
	total   uint64
}

// New builds a recorder from cfg (see Config for defaults).
func New(cfg Config) *Recorder {
	cfg = cfg.normalized()
	return &Recorder{cfg: cfg, buf: make([]Event, 0, cfg.Cap)}
}

// Enabled reports whether an event at the given cycle would be
// recorded. Nil-safe; this is the hot-path gate.
func (r *Recorder) Enabled(cycle int64) bool {
	return r != nil && cycle >= r.cfg.Start && (r.cfg.End == 0 || cycle <= r.cfg.End)
}

// Emit records one event. Nil-safe and allocation-free; events outside
// the cycle window are discarded.
func (r *Recorder) Emit(seq, cycle int64, k Kind, pc uint64, inst *isa.Inst, arg int64) {
	if !r.Enabled(cycle) {
		return
	}
	r.total++
	e := Event{Seq: seq, Cycle: cycle, PC: pc, Inst: inst, Kind: k, Arg: arg}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.wrapped = true
}

// Total returns how many events fell inside the window (recorded plus
// dropped).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns how many in-window events were overwritten after the
// ring buffer wrapped.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// Len returns how many events are currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Events returns the held events in chronological order (stable-sorted
// by cycle, preserving emit order within a cycle). The slice is a copy;
// the recorder may keep recording.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}
