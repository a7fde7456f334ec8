package tlb

import (
	"hbat/internal/vm"
)

// Multilevel is the design of Section 3.3: a small multi-ported L1 TLB
// with LRU replacement shields a larger, single-ported, random-replaced
// L2 TLB. L1 hits are serviced with no visible latency; L1 misses are
// forwarded to the L2 in the following cycle where they may queue for
// the single port (minimum 2-cycle penalty, Section 4.1). Multi-level
// inclusion is enforced: fills load both levels, and an L2 replacement
// invalidates the corresponding L1 entry. Page-status changes write
// through to the L2 so the L1 can be flushed without writebacks.
//
// Table 2 configurations: M16, M8, M4 (16/8/4-entry L1 over a
// 128-entry L2).
type Multilevel struct {
	name  string
	as    *vm.AddressSpace
	l1    *Bank
	l2    *Bank
	ports int // L1 ports (4 in the paper: enough for all requesters)
	stats Stats

	l2Free    int64 // next cycle the single L2 port is free
	portsUsed int
}

// NewMultilevel builds a two-level TLB.
func NewMultilevel(name string, as *vm.AddressSpace, l1Entries, l1Ports, l2Entries int, seed uint64) *Multilevel {
	t := &Multilevel{
		name:  name,
		l1:    NewBank(l1Entries, LRU, 0),
		l2:    NewBank(l2Entries, Random, 0),
		ports: l1Ports,
	}
	t.Reset(as, seed)
	return t
}

// Reset implements Resetter: the L1 is seeded seed and the L2
// seed+0x51ed.
func (t *Multilevel) Reset(as *vm.AddressSpace, seed uint64) {
	t.as = as
	t.l1.Reset(seed)
	t.l2.Reset(seed + 0x51ed)
	t.stats = Stats{}
	t.l2Free, t.portsUsed = 0, 0
}

// Name implements Device.
func (t *Multilevel) Name() string { return t.name }

// BeginCycle implements Device.
func (t *Multilevel) BeginCycle(now int64) { t.portsUsed = 0 }

// reserveL2Port books the earliest available slot of the single L2
// port for a request arriving at cycle arrive, returning the cycle the
// access starts.
func (t *Multilevel) reserveL2Port(arrive int64) int64 {
	start := arrive
	if t.l2Free > start {
		start = t.l2Free
	}
	t.l2Free = start + 1
	return start
}

// Lookup implements Device.
func (t *Multilevel) Lookup(req Request, now int64) Result {
	if t.portsUsed >= t.ports {
		t.stats.NoPorts++
		return Result{Outcome: NoPort}
	}
	t.portsUsed++
	t.stats.Lookups++

	if pte, ok := t.l1.Lookup(req.VPN, now); ok {
		t.stats.Hits++
		t.stats.ShieldHits++
		t.stats.observeExtra(0)
		if statusWrite(pte, req.Write) {
			// Write-through of the status change to the L2: consumes a
			// background slot of the L2 port but adds no latency to
			// this request (Section 4.1).
			t.stats.StatusWrites++
			t.reserveL2Port(now + 1)
		}
		return Result{Outcome: Hit, PTE: pte}
	}
	t.stats.ShieldMisses++

	// Miss in the L1: the request is sent to the L2 next cycle and may
	// queue behind other L2 work. The minimum L1-miss penalty is 2
	// cycles: one to reach the L2, one to access it.
	start := t.reserveL2Port(now + 1)
	extra := (start - now) + 1
	t.stats.QueueCycles += uint64(start - (now + 1))

	if pte, ok := t.l2.Lookup(req.VPN, start); ok {
		t.stats.Hits++
		t.stats.observeExtra(extra)
		if statusWrite(pte, req.Write) {
			t.stats.StatusWrites++
		}
		// Promote into the L1. Inclusion holds: the entry is already
		// in the L2.
		t.l1.Insert(req.VPN, pte, now)
		return Result{Outcome: Hit, Extra: extra, PTE: pte}
	}
	t.stats.Misses++
	return Result{Outcome: Miss}
}

// Fill implements Device: loads the walked translation into both levels
// (Section 4.1), invalidating from the L1 any entry the L2 replacement
// displaced so that inclusion is preserved.
func (t *Multilevel) Fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := t.as.Walk(vpn)
	if err != nil {
		return nil, err
	}
	if evictedVPN, evicted := t.l2.Insert(vpn, pte, now); evicted {
		t.l1.Invalidate(evictedVPN)
	}
	t.l1.Insert(vpn, pte, now)
	t.stats.Fills++
	return pte, nil
}

// Invalidate implements Device: thanks to inclusion, invalidating both
// levels is sufficient and the L1 probe can never miss an entry the L2
// lacked.
func (t *Multilevel) Invalidate(vpn uint64) {
	if t.l2.Invalidate(vpn) {
		t.l1.Invalidate(vpn)
	}
}

// FlushAll implements Device.
func (t *Multilevel) FlushAll() {
	t.l1.Flush()
	t.l2.Flush()
	t.stats.Flushes++
}

// Warm implements Warmer: loads both levels like a Fill (preserving
// inclusion) without touching the statistics.
func (t *Multilevel) Warm(vpn uint64, pte *vm.PTE, now int64) {
	if evictedVPN, evicted := t.l2.Insert(vpn, pte, now); evicted {
		t.l1.Invalidate(evictedVPN)
	}
	t.l1.Insert(vpn, pte, now)
}

// Stats implements Device.
func (t *Multilevel) Stats() *Stats { return &t.stats }

// L1 exposes the upper-level bank for tests.
func (t *Multilevel) L1() *Bank { return t.l1 }

// L2 exposes the base bank for tests.
func (t *Multilevel) L2() *Bank { return t.l2 }

// CheckInclusion reports whether every L1 entry is present in the L2
// (the multi-level inclusion invariant). Tests call it after arbitrary
// operation sequences.
func (t *Multilevel) CheckInclusion() bool {
	for _, vpn := range t.l1.VPNs() {
		if _, ok := t.l2.Probe(vpn); !ok {
			return false
		}
	}
	return true
}
