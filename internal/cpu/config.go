// Package cpu implements the execution-driven cycle-timing simulator of
// the paper's baseline machine (Table 1): an 8-way superscalar with
// either out-of-order issue (64-entry re-order buffer, 32-entry
// load/store queue, renaming, speculative execution down predicted
// paths with squash recovery) or in-order issue (no renaming, stall on
// register hazards, out-of-order completion). Data-memory address
// translation goes through a pluggable tlb.Device, which is how each of
// the paper's thirteen designs is evaluated.
//
// A machine's life is New, Run, then Release once the results are
// copied out. New starts from a released machine when one is pooled and
// re-initialises it in place, keeping the frames its memory owned and
// the tag arrays, predictor tables, ROB and fetch ring whose
// configuration matches, so a sweep of from-reset runs allocates those
// once rather than once a run. A recycled machine runs exactly as a new
// one (TestRecycledEqualsFresh).
package cpu

import (
	"errors"
	"fmt"

	"hbat/internal/bpred"
	"hbat/internal/cache"
	"hbat/internal/ckpt"
	"hbat/internal/stats"
)

// maxROBSize is the largest ROBSize: one bit per slot in a word.
const maxROBSize = 64

// Config parameterizes a machine. DefaultConfig reproduces Table 1.
type Config struct {
	// Issue model.
	InOrder     bool
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	// ROBSize is 1..64 entries (Table 1: 64): every scheduler set of
	// ROB slots is one 64-bit word, one bit per slot.
	ROBSize    int
	LSQSize    int
	FetchQueue int

	// Functional units (counts of fully pipelined units).
	IntALUs   int
	LdStUnits int
	FPAdders  int
	// Latencies (total cycles; MULT/DIV units are single instances,
	// divides are unpipelined).
	IntALULat  int64
	LoadLat    int64 // total load latency on all-hit path
	IntMultLat int64
	IntDivLat  int64
	FPAddLat   int64
	FPMultLat  int64
	FPDivLat   int64

	// Control prediction.
	Branch bpred.Config
	// MaxBranchesPerFetch is the collapsing-buffer variant's prediction
	// budget per cycle (Section 4.1: two predictions per cycle within
	// the same instruction cache block).
	MaxBranchesPerFetch int

	// Memory hierarchy.
	ICache cache.Config
	DCache cache.Config

	// Virtual memory.
	PageSize       uint64
	TLBMissLatency int64 // fixed walk latency after earlier instructions complete

	// VirtualCache switches the data cache to a virtually-indexed,
	// virtually-tagged organization (Section 3's "road not taken"):
	// cache hits complete without any translation, and the translation
	// device is consulted only on cache misses, when physical storage
	// must be addressed. The model grants protection checking for free
	// (the paper notes a real design would still need a TLB-like
	// protection structure with high bandwidth — this switch measures
	// only the translation-bandwidth relief). Synonyms do not arise in
	// the single-address-space workloads.
	VirtualCache bool

	// FlushTLBEvery, when non-zero, flushes the whole translation
	// device every N committed instructions, modeling the context-
	// switch pressure of a multiprogrammed system (one of the workload
	// trends the paper's introduction motivates the designs with).
	FlushTLBEvery uint64

	// Lockstep runs the untimed golden emulator (internal/emu) in
	// commit-order lockstep with the pipeline: at every commit the
	// architected register file, the committed PC, and committed store
	// values are compared, and Run returns a *DivergenceError decoding
	// the first mismatch with a context window of recent commits.
	// Translation designs may only change timing, never architecture,
	// so the checker holds for every Table 2 device and Config switch.
	Lockstep bool

	// FastForward enables two-phase simulation: the first FastForward
	// instructions were executed functionally by ckpt.Build, which warmed
	// the TLB/cache/branch-predictor state without timing, and only the
	// remainder is measured cycle-accurately. The machine restores
	// Checkpoint, which must be that build's (New rejects FastForward
	// without one), so a sweep amortizes one warm-up across all thirteen
	// TLB designs. MaxInsts still counts committed instructions of the
	// measurement window only.
	FastForward uint64
	Checkpoint  *ckpt.Checkpoint

	// MaxInsts is the committed-instruction budget (0 = until Halt).
	MaxInsts uint64

	// Seed drives every randomized structure for reproducibility.
	Seed uint64
}

// DefaultConfig returns the paper's baseline machine (Table 1): 8-way
// out-of-order issue, 64-entry ROB, 32-entry load/store queue, GAp
// predictor, 32 KB 2-way L1 caches with 6-cycle miss latency, 4 KB
// pages, and a 30-cycle TLB miss latency.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		IssueWidth:  8,
		CommitWidth: 8,
		ROBSize:     64,
		LSQSize:     32,
		FetchQueue:  16,

		IntALUs:   8,
		LdStUnits: 4,
		FPAdders:  4,

		IntALULat:  1,
		LoadLat:    2,
		IntMultLat: 3,
		IntDivLat:  12,
		FPAddLat:   2,
		FPMultLat:  4,
		FPDivLat:   12,

		Branch:              bpred.DefaultConfig(),
		MaxBranchesPerFetch: 2,

		ICache: cache.DefaultICache(),
		DCache: cache.DefaultDCache(),

		PageSize:       4096,
		TLBMissLatency: 30,

		Seed: 1,
	}
}

// check rejects a configuration no run can use: a zero page size, a
// ROB beyond one scheduler word, a width, queue or unit count below 1
// (every run would end in ErrDeadlock: with no functional unit of a
// class, or no prediction budget, the first instruction that needs one
// never issues or is never fetched), and a fast-forward with no
// checkpoint to restore.
func (c *Config) check() error {
	if c.PageSize == 0 {
		return errors.New("cpu: zero page size")
	}
	if c.ROBSize < 1 || c.ROBSize > maxROBSize {
		return fmt.Errorf("cpu: ROBSize %d outside 1..%d", c.ROBSize, maxROBSize)
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"FetchWidth", c.FetchWidth}, {"IssueWidth", c.IssueWidth}, {"CommitWidth", c.CommitWidth},
		{"LSQSize", c.LSQSize}, {"FetchQueue", c.FetchQueue},
		{"IntALUs", c.IntALUs}, {"LdStUnits", c.LdStUnits}, {"FPAdders", c.FPAdders},
		{"MaxBranchesPerFetch", c.MaxBranchesPerFetch},
	} {
		if f.n < 1 {
			return fmt.Errorf("cpu: %s %d is below 1: every run would deadlock", f.name, f.n)
		}
	}
	if c.FastForward > 0 && c.Checkpoint == nil {
		return errors.New("cpu: FastForward without a Checkpoint (build one with ckpt.Build)")
	}
	return nil
}

// Stats is every count a run keeps: the core's event counters, its
// three distributions and both caches' counters, each counted once and
// held by value, so Stats is comparable and copies with =. The
// translation device's own counts are its tlb.Stats. With
// Config.FastForward set, every field describes the measurement window
// only; the skipped prefix is reported separately as FastForwarded.
type Stats struct {
	Cycles int64

	// FastForwarded counts instructions executed by the functional
	// warm-up phase (zero without Config.FastForward).
	FastForwarded uint64

	// Committed (non-speculative) operation counts.
	Committed         uint64
	CommittedLoads    uint64
	CommittedStores   uint64
	CommittedBranches uint64

	// Issued operation counts (including wrong-path work).
	Issued    uint64
	IssuedMem uint64

	Fetched          uint64
	Squashed         uint64 // wrong-path instructions squashed
	SquashRecoveries uint64 // misprediction recoveries that squashed them

	// Branch prediction (direction, conditional branches only).
	BranchLookups uint64
	BranchCorrect uint64

	// Address-translation behaviour seen from the core.
	TLBWalks          uint64 // page-table walks performed
	TLBWalkCycles     int64  // cycles spent with a walk in progress at the ROB head
	DispatchTLBStalls int64  // cycles dispatch was stalled by an outstanding TLB miss
	TLBRetries        uint64 // lookups rejected for want of a port (replayed)

	// Other replays: a memory operation that could not finish this
	// cycle and tries again the next.
	DCacheRetries      uint64 // loads without a data-cache port
	StoreWaits         uint64 // loads waiting on an older store's data
	CommitStoreRetries uint64 // commit cycles a store found no data-cache port

	// ContextFlushes counts FlushTLBEvery-induced full TLB flushes.
	ContextFlushes uint64

	// Stall breakdown (cycles; categories can overlap with useful work
	// elsewhere in the machine — they describe one stage each).
	// FetchStalls counts the cycles the front end was blocked, by the
	// cause that blocked it (a redirect penalty or an I-cache miss;
	// FetchStallCycles sums them); a stall with no cause would land in
	// FetchStalls[stallNone].
	FetchStalls         [numStallCauses]int64
	FetchQueueFull      int64 // fetch found its queue full
	DispatchROBFull     int64 // dispatch blocked on a full re-order buffer
	DispatchLSQFull     int64 // dispatch blocked on a full load/store queue
	DispatchEmptyCycles int64 // dispatch starved by the front end

	// Distributions.
	TransExtra   stats.Dist // extra translation latency per TLB hit (transExtraBounds)
	QueueDepth   stats.Dist // TLB-port rejections per cycle (queueDepthBounds)
	ROBOccupancy stats.Dist // ROB occupancy per cycle (robOccupancyBounds)

	// The caches' counters, copied at the end of Run.
	ICache, DCache cache.Stats
}

// FetchStallCycles returns the cycles the front end was blocked, every
// cause together.
func (s *Stats) FetchStallCycles() int64 {
	var n int64
	for _, c := range s.FetchStalls {
		n += c
	}
	return n
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// IssueIPC returns issued operations per cycle (speculative included).
func (s *Stats) IssueIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Cycles)
}

// MemPerCycle returns committed loads+stores per cycle.
func (s *Stats) MemPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.CommittedLoads+s.CommittedStores) / float64(s.Cycles)
}

// IssuedMemPerCycle returns issued loads+stores per cycle.
func (s *Stats) IssuedMemPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.IssuedMem) / float64(s.Cycles)
}

// BranchRate returns the conditional-branch prediction rate.
func (s *Stats) BranchRate() float64 {
	if s.BranchLookups == 0 {
		return 0
	}
	return float64(s.BranchCorrect) / float64(s.BranchLookups)
}
