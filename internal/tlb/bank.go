package tlb

import (
	"fmt"

	"hbat/internal/vm"
)

// Replacement selects a bank's replacement policy. The paper uses LRU
// in the small upper-level structures (4-16 entries) and random in the
// 128-entry base TLBs (Section 4.3, Figure 6).
type Replacement uint8

const (
	// Random replacement (xorshift-driven, deterministic per seed).
	Random Replacement = iota
	// LRU replacement.
	LRU
	// FIFO replacement (used by ablation benchmarks).
	FIFO
)

func (r Replacement) String() string {
	switch r {
	case Random:
		return "random"
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	}
	return "repl(?)"
}

type bankEntry struct {
	vpn     uint64
	pte     *vm.PTE
	valid   bool
	lastUse int64 // LRU timestamp
	filled  int64 // FIFO timestamp
}

// Bank is one translation store: fully associative by default, or
// set-associative via NewSetAssocBank (every TLB of the paper's Table 2
// is fully associative, but set-associative organizations are the
// practical alternative the ablation benchmarks quantify). It has no
// notion of ports; devices compose banks with their own port
// arbitration. Bank is also used directly by the Figure 6 miss-rate
// study.
type Bank struct {
	entries []bankEntry
	index   map[uint64]int // vpn -> entry index
	repl    Replacement
	rng     uint64
	ways    int // entries per set (== len(entries) for fully associative)
	nsets   int

	// last is the entry the previous Lookup hit, or nil: consecutive
	// references mostly fall on one page, and then find it here without
	// hashing. Anything that moves or removes an entry forgets it.
	last *bankEntry

	// Hits and Misses count Lookup outcomes.
	Hits   uint64
	Misses uint64
}

// NewBank creates a fully-associative bank with size entries.
func NewBank(size int, repl Replacement, seed uint64) *Bank {
	return NewSetAssocBank(size, size, repl, seed)
}

// NewSetAssocBank creates a bank of size entries organized as sets of
// `ways` entries each, indexed by the low virtual-page-number bits.
// ways == size gives full associativity.
func NewSetAssocBank(size, ways int, repl Replacement, seed uint64) *Bank {
	if size <= 0 || ways <= 0 || size%ways != 0 {
		panic(fmt.Sprintf("tlb: invalid bank geometry %d entries / %d ways", size, ways))
	}
	b := &Bank{
		entries: make([]bankEntry, size),
		index:   make(map[uint64]int, size),
		repl:    repl,
		ways:    ways,
		nsets:   size / ways,
	}
	b.Reset(seed)
	return b
}

// Reset empties the bank, zeroes its counters and reseeds its
// replacement generator: the bank is then as its constructor built it
// with seed.
func (b *Bank) Reset(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	b.Flush()
	b.rng = seed
	b.Hits, b.Misses = 0, 0
}

// Ways returns the bank's associativity.
func (b *Bank) Ways() int { return b.ways }

// set returns the index range [lo, hi) that may hold vpn.
func (b *Bank) set(vpn uint64) (lo, hi int) {
	s := int(vpn % uint64(b.nsets))
	return s * b.ways, (s + 1) * b.ways
}

// Size returns the bank's entry count.
func (b *Bank) Size() int { return len(b.entries) }

// Replacement returns the bank's replacement policy.
func (b *Bank) Replacement() Replacement { return b.repl }

func (b *Bank) rand() uint64 {
	x := b.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	b.rng = x
	return x
}

// Lookup finds vpn, updating recency on a hit.
func (b *Bank) Lookup(vpn uint64, now int64) (*vm.PTE, bool) {
	if e := b.last; e != nil && e.vpn == vpn {
		e.lastUse = now
		b.Hits++
		return e.pte, true
	}
	if i, ok := b.index[vpn]; ok {
		e := &b.entries[i]
		b.last = e
		e.lastUse = now
		b.Hits++
		return e.pte, true
	}
	b.Misses++
	return nil, false
}

// Probe finds vpn without updating recency or counters.
func (b *Bank) Probe(vpn uint64) (*vm.PTE, bool) {
	if i, ok := b.index[vpn]; ok {
		return b.entries[i].pte, true
	}
	return nil, false
}

// Touch refreshes the recency of vpn if present (used when a piggyback
// shares an in-flight translation).
func (b *Bank) Touch(vpn uint64, now int64) {
	if i, ok := b.index[vpn]; ok {
		b.entries[i].lastUse = now
	}
}

// Insert installs vpn -> pte, evicting per the replacement policy if
// the bank is full. It returns the evicted VPN and whether an eviction
// of a valid entry occurred (multi-level designs use this to enforce
// inclusion; pretranslation uses it to trigger coherence flushes).
func (b *Bank) Insert(vpn uint64, pte *vm.PTE, now int64) (evictedVPN uint64, evicted bool) {
	b.last = nil
	if i, ok := b.index[vpn]; ok {
		// Refresh in place (can happen when a fill races a prior fill
		// of the same page).
		b.entries[i].pte = pte
		b.entries[i].lastUse = now
		b.entries[i].filled = now
		return 0, false
	}
	lo, hi := b.set(vpn)
	victim := -1
	for i := lo; i < hi; i++ {
		if !b.entries[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		switch b.repl {
		case LRU:
			victim = lo
			for i := lo + 1; i < hi; i++ {
				if b.entries[i].lastUse < b.entries[victim].lastUse {
					victim = i
				}
			}
		case FIFO:
			victim = lo
			for i := lo + 1; i < hi; i++ {
				if b.entries[i].filled < b.entries[victim].filled {
					victim = i
				}
			}
		default:
			victim = lo + int(b.rand()%uint64(b.ways))
		}
		evictedVPN = b.entries[victim].vpn
		evicted = true
		delete(b.index, evictedVPN)
	}
	b.entries[victim] = bankEntry{vpn: vpn, pte: pte, valid: true, lastUse: now, filled: now}
	b.index[vpn] = victim
	return evictedVPN, evicted
}

// Invalidate removes vpn if present, reporting whether it was.
func (b *Bank) Invalidate(vpn uint64) bool {
	i, ok := b.index[vpn]
	if !ok {
		return false
	}
	b.last = nil
	b.entries[i] = bankEntry{}
	delete(b.index, vpn)
	return true
}

// Flush empties the bank.
func (b *Bank) Flush() {
	b.last = nil
	for i := range b.entries {
		b.entries[i] = bankEntry{}
	}
	clear(b.index)
}

// Len reports how many valid entries the bank holds.
func (b *Bank) Len() int { return len(b.index) }

// VPNs returns the set of resident VPNs (for invariant checks in tests).
func (b *Bank) VPNs() []uint64 {
	out := make([]uint64, 0, len(b.index))
	for vpn := range b.index {
		out = append(out, vpn)
	}
	return out
}
