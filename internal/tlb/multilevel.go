package tlb

import (
	"hbat/internal/vm"
)

// Multilevel is the design of Section 3.3: a small multi-ported L1 TLB
// with LRU replacement shields a larger, single-ported, random-replaced
// L2 TLB (the shielded base). L1 hits are serviced with no visible
// latency; L1 misses are forwarded to the L2 in the following cycle
// where they may queue for the single port (minimum 2-cycle penalty:
// one to reach the L2, one to access it, Section 4.1). Multi-level
// inclusion is enforced: fills load both levels, and an L2 replacement
// invalidates the corresponding L1 entry. Page-status changes write
// through to the L2 so the L1 can be flushed without writebacks.
//
// Table 2 configurations: M16, M8, M4 (16/8/4-entry L1 over a
// 128-entry L2).
type Multilevel struct {
	shielded
	l1 *Bank
}

// NewMultilevel builds a two-level TLB.
func NewMultilevel(name string, as *vm.AddressSpace, l1Entries, l1Ports, l2Entries int, seed uint64) *Multilevel {
	t := &Multilevel{
		shielded: shielded{name: name, base: NewBank(l2Entries, Random, 0), ports: l1Ports, access: 1},
		l1:       NewBank(l1Entries, LRU, 0),
	}
	t.Reset(as, seed)
	return t
}

// Reset implements Resetter: the L1 is seeded seed and the L2
// seed+0x51ed.
func (t *Multilevel) Reset(as *vm.AddressSpace, seed uint64) {
	t.reset(as)
	t.l1.Reset(seed)
	t.base.Reset(seed + 0x51ed)
}

// Lookup implements Device.
func (t *Multilevel) Lookup(req Request, now int64) Result {
	if !t.claimPort() {
		return Result{Outcome: NoPort}
	}
	if pte, ok := t.l1.Lookup(req.VPN, now); ok {
		return t.shieldHit(pte, req.Write, now)
	}
	r := t.lookupBase(req, now)
	if r.Outcome == Hit {
		// Promote into the L1. Inclusion holds: the entry is already
		// in the L2.
		t.l1.Insert(req.VPN, r.PTE, now)
	}
	return r
}

// Fill implements Device: loads the walked translation into both levels
// (Section 4.1).
func (t *Multilevel) Fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := t.walk(vpn)
	if err == nil {
		t.Warm(vpn, pte, now)
	}
	return pte, err
}

// Invalidate implements Device: thanks to inclusion, invalidating both
// levels is sufficient and the L1 probe can never miss an entry the L2
// lacked.
func (t *Multilevel) Invalidate(vpn uint64) {
	if t.base.Invalidate(vpn) {
		t.l1.Invalidate(vpn)
	}
}

// FlushAll implements Device.
func (t *Multilevel) FlushAll() {
	t.l1.Flush()
	t.base.Flush()
}

// Warm implements Warmer: loads both levels like a Fill without
// touching the statistics, invalidating from the L1 any entry the L2
// replacement displaced so that inclusion is preserved.
func (t *Multilevel) Warm(vpn uint64, pte *vm.PTE, now int64) {
	if evictedVPN, evicted := t.base.Insert(vpn, pte, now); evicted {
		t.l1.Invalidate(evictedVPN)
	}
	t.l1.Insert(vpn, pte, now)
}

// CheckInclusion reports whether every L1 entry is present in the L2
// (the multi-level inclusion invariant). Tests call it after arbitrary
// operation sequences.
func (t *Multilevel) CheckInclusion() bool {
	for _, vpn := range t.l1.VPNs() {
		if _, ok := t.base.Probe(vpn); !ok {
			return false
		}
	}
	return true
}
