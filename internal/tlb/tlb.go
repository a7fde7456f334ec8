// Package tlb implements the paper's high-bandwidth address-translation
// mechanisms: multi-ported TLBs, interleaved TLBs (bit- and XOR-select),
// multi-level TLBs with an LRU L1 and inclusion, piggyback ports, and
// pretranslation caches. Every design sits behind the Device interface,
// which models per-cycle port arbitration, queueing at busy ports, and
// the latency each shielding mechanism adds or hides, exactly as in
// Section 3 and Table 2 of Austin & Sohi (ISCA '96).
package tlb

import (
	"hbat/internal/isa"
	"hbat/internal/vm"
)

// Outcome classifies the device's answer to one translation request.
type Outcome uint8

const (
	// Hit: the translation was serviced; Result.Extra gives the
	// latency beyond the (fully overlapped) cache access.
	Hit Outcome = iota
	// NoPort: every usable port is busy this cycle and no piggyback
	// match exists; the requester must retry next cycle.
	NoPort
	// Miss: the translation is not cached anywhere; a page-table walk
	// is required. The paper services walks only non-speculatively,
	// with a fixed 30-cycle latency after earlier instructions
	// complete; the core enforces that policy and then calls Fill.
	Miss
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case NoPort:
		return "noport"
	case Miss:
		return "miss"
	}
	return "outcome(?)"
}

// Request is one address-translation request presented to a device.
// The core presents each cycle's requests in instruction age order, so
// port arbitration inside a device implicitly favors the earliest
// issued instruction, per Section 4.1.
type Request struct {
	VPN   uint64
	Write bool // store: needs the dirty bit set
	// Base and OffHi identify the access for pretranslation designs:
	// the base register and the upper four bits of a load's offset
	// (zero for any other instruction), per Section 4.1.
	Base  isa.Reg
	OffHi uint8
	// Load distinguishes loads (whose offset bits form the
	// pretranslation tag) from other memory ops.
	Load bool
}

// Result is the device's answer.
type Result struct {
	Outcome Outcome
	// Extra is the number of cycles of translation latency visible
	// beyond the overlapped cache access (valid for Hit).
	Extra int64
	// PTE is the translation (valid for Hit).
	PTE *vm.PTE
}

// Stats aggregates a device's activity.
type Stats struct {
	Lookups      uint64 // requests that received a definitive answer (hit or miss)
	Hits         uint64
	Misses       uint64 // base-TLB misses (page-table walks needed)
	NoPorts      uint64 // rejections for want of a port
	Piggybacks   uint64 // hits satisfied by sharing an in-flight translation
	ShieldHits   uint64 // hits serviced by a shielding structure (L1 TLB / pretranslation cache)
	ShieldMisses uint64 // shielding-structure misses forwarded to the base TLB
	QueueCycles  uint64 // total cycles requests spent queued for a base-TLB port
	ExtraCycles  uint64 // total extra hit-latency cycles (includes queueing)
	StatusWrites uint64 // reference/dirty write-throughs sent to the base TLB
	Fills        uint64 // translations installed after page-table walks
	Flushes      uint64 // full flushes (pretranslation coherence)

	// ExtraHist is the distribution of per-hit extra latency: bucket i
	// counts hits answered with Extra == i cycles; the last bucket
	// collects everything slower. ExtraCycles is its weighted sum.
	ExtraHist [8]uint64
}

// observeExtra records one hit's extra translation latency.
func (s *Stats) observeExtra(extra int64) {
	s.ExtraCycles += uint64(extra)
	i := int(extra)
	if i < 0 {
		i = 0
	}
	if i >= len(s.ExtraHist) {
		i = len(s.ExtraHist) - 1
	}
	s.ExtraHist[i]++
}

// MissRate returns base-TLB misses per definitive lookup.
func (s *Stats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// Device is a complete address-translation mechanism. BeginCycle must
// be called once per simulated cycle before any Lookup for that cycle.
// Lookup answers a request; on a Miss the core performs the walk policy
// and then calls Fill, after which a retried Lookup is guaranteed to
// find the entry (absent intervening replacement).
type Device interface {
	// Name returns the design mnemonic (T4, I8, M8, PB2, ...).
	Name() string
	// BeginCycle resets per-cycle port state.
	BeginCycle(now int64)
	// Lookup services one translation request at cycle now.
	Lookup(req Request, now int64) Result
	// Fill installs the translation for vpn after a page-table walk,
	// returning the PTE or an error from the walk itself.
	Fill(vpn uint64, now int64) (*vm.PTE, error)
	// Invalidate removes any cached translation of vpn from every
	// level of the device (a TLB consistency operation / shootdown).
	// Designs enforcing multi-level inclusion need not probe their
	// upper level separately — the paper's argument for inclusion
	// (Section 3.3) — but must leave no stale entry anywhere.
	Invalidate(vpn uint64)
	// FlushAll empties every caching structure in the device.
	FlushAll()
	// Stats exposes the device's counters.
	Stats() *Stats
}

// Resetter is implemented by every Table 2 design. Reset returns the
// device to the state its constructor leaves it in over as with seed:
// every structure empty, the statistics zeroed, the replacement
// generators reseeded. It keeps the device's storage, so a simulator
// that runs a design again resets the device instead of building one.
type Resetter interface {
	Reset(as *vm.AddressSpace, seed uint64)
}

// Warmer is implemented by designs that support functional warm-up: Warm
// installs the translation for vpn into the device's caching structures
// exactly as a Fill would, but records no statistics, claims no port, and
// charges no latency. The two-phase fast-forward mode replays the
// functional phase's distinct-page reference stream through Warm (oldest
// first, with negative recency stamps) so the measurement window starts
// with a realistically populated TLB and zeroed counters.
type Warmer interface {
	Warm(vpn uint64, pte *vm.PTE, now int64)
}

// RegisterTracker is implemented by designs that attach translations to
// register values (pretranslation). The core calls these hooks at
// commit so squashed wrong-path instructions never perturb the cache.
type RegisterTracker interface {
	// Propagate records that dst was produced by pointer arithmetic on
	// src1 (or src2): any pretranslation attached to the first source
	// that has one is copied to dst.
	Propagate(dst, src1, src2 isa.Reg)
	// InvalidateReg records that dst received a value unrelated to any
	// tracked pointer (load result, immediate materialization, ...).
	InvalidateReg(dst isa.Reg)
}

// statusWrite updates the authoritative PTE status bits for an access
// that was serviced by a shielding structure and reports whether a
// write-through to the base TLB was required (first reference or first
// write), which costs base-TLB port bandwidth but no request latency
// (Section 4.1).
func statusWrite(pte *vm.PTE, write bool) bool {
	needed := !pte.Ref || (write && !pte.Dirty)
	pte.Ref = true
	if write {
		pte.Dirty = true
	}
	return needed
}
