package tlb

import (
	"hbat/internal/isa"
	"hbat/internal/vm"
)

// Pretranslation is the design of Sections 3.5/4.1 (configuration P8):
// translations are attached to base-register *values* at their first
// dereference and reused on later dereferences of the same pointer. A
// small multi-ported pretranslation cache, tagged by the base-register
// identifier concatenated with the upper four bits of a load's offset,
// shields a single-ported base TLB. Pointer-creating arithmetic
// propagates attached translations to the result register; any other
// write to a register drops them. Coherence is enforced by flushing the
// pretranslation cache whenever a base-TLB entry is replaced.
type Pretranslation struct {
	name    string
	as      *vm.AddressSpace
	cache   []preEntry
	ports   int
	base    *Bank
	offMask uint8
	stats   Stats

	baseFree  int64 // next free cycle of the single base-TLB port
	portsUsed int
	clock     int64 // LRU clock for the pretranslation cache
}

type preEntry struct {
	valid   bool
	reg     isa.Reg
	offHi   uint8
	vpn     uint64
	pte     *vm.PTE
	lastUse int64
}

// NewPretranslation builds a pretranslation design with a cacheEntries-
// entry pretranslation cache (LRU, ports access ports) over a single-
// ported base TLB of baseEntries entries (random replacement).
func NewPretranslation(name string, as *vm.AddressSpace, cacheEntries, ports, baseEntries int, seed uint64) *Pretranslation {
	t := &Pretranslation{
		name:  name,
		cache: make([]preEntry, cacheEntries),
		ports: ports,
		base:  NewBank(baseEntries, Random, seed),
	}
	t.Reset(as, seed)
	return t
}

// Reset implements Resetter; the offset tag is four bits again.
func (t *Pretranslation) Reset(as *vm.AddressSpace, seed uint64) {
	t.as = as
	clear(t.cache)
	t.base.Reset(seed)
	t.offMask = 0xF
	t.stats = Stats{}
	t.baseFree, t.portsUsed, t.clock = 0, 0, 0
}

// SetOffsetTagBits restricts how many of the four offset bits in the
// request participate in the pretranslation tag. The paper uses four
// (Section 4.1: "the upper 4 bits of the offset of a load"); zero
// degenerates to one pretranslation per register, the original
// branch-address-cache organization. Returns the receiver for chaining.
func (t *Pretranslation) SetOffsetTagBits(n int) *Pretranslation {
	if n < 0 {
		n = 0
	}
	if n > 4 {
		n = 4
	}
	t.offMask = uint8(0xF >> (4 - n))
	return t
}

// Name implements Device.
func (t *Pretranslation) Name() string { return t.name }

// BeginCycle implements Device.
func (t *Pretranslation) BeginCycle(now int64) { t.portsUsed = 0 }

func (t *Pretranslation) reserveBasePort(arrive int64) int64 {
	start := arrive
	if t.baseFree > start {
		start = t.baseFree
	}
	t.baseFree = start + 1
	return start
}

func (t *Pretranslation) find(reg isa.Reg, offHi uint8) *preEntry {
	for i := range t.cache {
		e := &t.cache[i]
		if e.valid && e.reg == reg && e.offHi == offHi {
			return e
		}
	}
	return nil
}

// attach inserts (or refreshes) a pretranslation, evicting LRU.
func (t *Pretranslation) attach(reg isa.Reg, offHi uint8, vpn uint64, pte *vm.PTE) {
	t.clock++
	if e := t.find(reg, offHi); e != nil {
		e.vpn, e.pte, e.lastUse = vpn, pte, t.clock
		return
	}
	victim := 0
	for i := range t.cache {
		if !t.cache[i].valid {
			victim = i
			break
		}
		if t.cache[i].lastUse < t.cache[victim].lastUse {
			victim = i
		}
	}
	t.cache[victim] = preEntry{valid: true, reg: reg, offHi: offHi, vpn: vpn, pte: pte, lastUse: t.clock}
}

// Lookup implements Device.
func (t *Pretranslation) Lookup(req Request, now int64) Result {
	if t.portsUsed >= t.ports {
		t.stats.NoPorts++
		return Result{Outcome: NoPort}
	}
	t.portsUsed++
	t.stats.Lookups++

	// The pretranslation is read in parallel with register-file access
	// and is usable only if the access's virtual page matches the page
	// the translation was attached for (Section 3.5).
	if req.Base < isa.NumIntRegs {
		if e := t.find(req.Base, req.OffHi&t.offMask); e != nil && e.vpn == req.VPN {
			t.clock++
			e.lastUse = t.clock
			t.stats.Hits++
			t.stats.ShieldHits++
			t.stats.observeExtra(0)
			if statusWrite(e.pte, req.Write) {
				t.stats.StatusWrites++
				t.reserveBasePort(now + 1)
			}
			return Result{Outcome: Hit, PTE: e.pte}
		}
	}
	t.stats.ShieldMisses++

	// A pretranslation miss is not detected until the cycle after
	// address generation; the request then needs the single-ported
	// base TLB, where it may queue (Section 4.1).
	start := t.reserveBasePort(now + 1)
	extra := start - now
	t.stats.QueueCycles += uint64(start - (now + 1))

	pte, ok := t.base.Lookup(req.VPN, start)
	if !ok {
		t.stats.Misses++
		return Result{Outcome: Miss}
	}
	t.stats.Hits++
	t.stats.observeExtra(extra)
	if statusWrite(pte, req.Write) {
		t.stats.StatusWrites++
	}
	// Attach the result to the base register value.
	if req.Base < isa.NumIntRegs {
		t.attach(req.Base, req.OffHi&t.offMask, req.VPN, pte)
	}
	return Result{Outcome: Hit, Extra: extra, PTE: pte}
}

// Fill implements Device. Replacing a base-TLB entry flushes the
// pretranslation cache (the paper's coherence rule), so an attached
// translation can never outlive its base-TLB entry.
func (t *Pretranslation) Fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := t.as.Walk(vpn)
	if err != nil {
		return nil, err
	}
	if _, evicted := t.base.Insert(vpn, pte, now); evicted {
		t.flushCache()
	}
	t.stats.Fills++
	return pte, nil
}

// Invalidate implements Device: removing a base-TLB entry flushes the
// pretranslation cache, the same coherence rule as replacement.
func (t *Pretranslation) Invalidate(vpn uint64) {
	if t.base.Invalidate(vpn) {
		t.flushCache()
	}
}

func (t *Pretranslation) flushCache() {
	for i := range t.cache {
		t.cache[i] = preEntry{}
	}
	t.stats.Flushes++
}

// FlushAll implements Device.
func (t *Pretranslation) FlushAll() {
	t.flushCache()
	t.base.Flush()
}

// Warm implements Warmer: installs the translation into the base TLB
// like a Fill without touching the statistics. The coherence rule still
// applies — a base-TLB eviction empties the pretranslation cache — but
// the quiet flush is uncounted. Pretranslations themselves are not
// warmed: they bind to register *values*, which the warm-up replay does
// not carry.
func (t *Pretranslation) Warm(vpn uint64, pte *vm.PTE, now int64) {
	if _, evicted := t.base.Insert(vpn, pte, now); evicted {
		for i := range t.cache {
			t.cache[i] = preEntry{}
		}
	}
}

// Stats implements Device.
func (t *Pretranslation) Stats() *Stats { return &t.stats }

// Propagate implements RegisterTracker: dst was produced by pointer
// arithmetic on src1 (or src2); pretranslations attached to the first
// source that has any are copied to dst. Copies are reinserted at the
// LRU tail, which the paper notes improves cache management.
func (t *Pretranslation) Propagate(dst, src1, src2 isa.Reg) {
	if dst >= isa.NumIntRegs || dst == isa.Zero {
		return
	}
	src := isa.Reg(255)
	if src1 < isa.NumIntRegs && t.hasEntries(src1) {
		src = src1
	} else if src2 < isa.NumIntRegs && t.hasEntries(src2) {
		src = src2
	}
	if src == 255 {
		t.InvalidateReg(dst)
		return
	}
	if src == dst {
		// In-place pointer arithmetic (p += 8): the attached
		// translations stay with the register; the VPN check at the
		// next dereference validates them.
		return
	}
	t.InvalidateReg(dst)
	// Copy src's entries to dst. Collect first: attach may evict. The
	// buffer holds a Table 2 cache (8 entries) without allocating.
	var buf [8]preEntry
	copies := buf[:0]
	for i := range t.cache {
		e := &t.cache[i]
		if e.valid && e.reg == src {
			copies = append(copies, *e)
		}
	}
	for _, c := range copies {
		t.attach(dst, c.offHi, c.vpn, c.pte)
	}
}

// InvalidateReg implements RegisterTracker: dst received a value not
// derived from a tracked pointer, so any attached translations die.
func (t *Pretranslation) InvalidateReg(dst isa.Reg) {
	if dst >= isa.NumIntRegs {
		return
	}
	for i := range t.cache {
		if t.cache[i].valid && t.cache[i].reg == dst {
			t.cache[i] = preEntry{}
		}
	}
}

func (t *Pretranslation) hasEntries(r isa.Reg) bool {
	for i := range t.cache {
		if t.cache[i].valid && t.cache[i].reg == r {
			return true
		}
	}
	return false
}

// Base exposes the base TLB bank for tests.
func (t *Pretranslation) Base() *Bank { return t.base }

// CacheLen reports how many pretranslations are currently attached.
func (t *Pretranslation) CacheLen() int {
	n := 0
	for i := range t.cache {
		if t.cache[i].valid {
			n++
		}
	}
	return n
}
