// Package tlb implements the paper's high-bandwidth address-translation
// mechanisms, with Table 2 as one slice of rows (configs.go): one banked
// TLB that is the multi-ported (one bank, k ports), interleaved (bit- or
// XOR-select over n one-ported banks) and piggyback-ported designs, and
// one shield over a single-ported base TLB that is the multi-level
// designs (an LRU L1 with inclusion) and pretranslation (a register-
// tagged cache). Every design sits behind the
// Device interface, which models per-cycle port arbitration, queueing
// at busy ports, and the latency each shielding mechanism adds or
// hides, exactly as in Section 3 and Table 2 of Austin & Sohi (ISCA
// '96).
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

// serialPort is the single port of the base TLB behind a shield (the
// L2 of a multi-level design, the base TLB of pretranslation): one
// access per cycle, taken in request order.
type serialPort struct {
	free int64 // next cycle the port is free
}

// reserve books the earliest slot at or after cycle arrive, returning
// the cycle the access starts.
func (p *serialPort) reserve(arrive int64) int64 {
	start := max(arrive, p.free)
	p.free = start + 1
	return start
}

// shielded is what the multi-level and pretranslation designs share: a
// small multi-ported shield in front of a single-ported base TLB
// (Sections 3.3 and 3.5). The embedding device keeps only its shield.
type shielded struct {
	name   string
	as     *vm.AddressSpace
	base   *Bank
	ports  int // shield ports (4 in the paper: enough for all requesters)
	used   int // shield ports claimed this cycle
	port   serialPort
	stats  Stats
	access int64 // base-TLB cycles charged beyond queueing: 1 for an L2 access, 0 for P8
}

// Name implements Device.
func (s *shielded) Name() string { return s.name }

// BeginCycle implements Device.
func (s *shielded) BeginCycle(now int64) { s.used = 0 }

// Stats implements Device.
func (s *shielded) Stats() *Stats { return &s.stats }

// reset zeroes the per-run state; the device resets its banks.
func (s *shielded) reset(as *vm.AddressSpace) {
	s.as, s.stats, s.port, s.used = as, Stats{}, serialPort{}, 0
}

// claimPort claims a shield port for a lookup, or counts a NoPort.
func (s *shielded) claimPort() bool {
	if s.used >= s.ports {
		s.stats.NoPorts++
		return false
	}
	s.used++
	s.stats.Lookups++
	return true
}

// shieldHit answers a lookup the shield served with pte, at no extra
// latency. A status change writes through to the base TLB, taking a
// slot of its port but adding no latency to this request (Section 4.1).
func (s *shielded) shieldHit(pte *vm.PTE, write bool, now int64) Result {
	s.stats.Hits++
	s.stats.ShieldHits++
	if statusWrite(pte, write) {
		s.stats.StatusWrites++
		s.port.reserve(now + 1)
	}
	return Result{Outcome: Hit, PTE: pte}
}

// lookupBase answers a shield miss from the base TLB, which the
// request reaches the next cycle and where it may queue behind other
// base-TLB work; it costs its queueing plus access.
func (s *shielded) lookupBase(req Request, now int64) Result {
	s.stats.ShieldMisses++
	start := s.port.reserve(now + 1)
	s.stats.QueueCycles += uint64(start - (now + 1))
	pte, ok := s.base.Lookup(req.VPN, start)
	if !ok {
		s.stats.Misses++
		return Result{Outcome: Miss}
	}
	extra := start - now + s.access
	s.stats.Hits++
	s.stats.ExtraCycles += uint64(extra)
	if statusWrite(pte, req.Write) {
		s.stats.StatusWrites++
	}
	return Result{Outcome: Hit, Extra: extra, PTE: pte}
}

// walk is a Fill's page-table walk, counted.
func (s *shielded) walk(vpn uint64) (*vm.PTE, error) {
	pte, err := s.as.Walk(vpn)
	if err == nil {
		s.stats.Fills++
	}
	return pte, err
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
