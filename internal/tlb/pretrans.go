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
	shielded
	cache   []preEntry
	offMask uint8
	clock   int64 // LRU clock for the pretranslation cache
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
		shielded: shielded{name: name, base: NewBank(baseEntries, Random, seed), ports: ports},
		cache:    make([]preEntry, cacheEntries),
	}
	t.Reset(as, seed)
	return t
}

// Reset implements Resetter; the offset tag is four bits again.
func (t *Pretranslation) Reset(as *vm.AddressSpace, seed uint64) {
	t.reset(as)
	clear(t.cache)
	t.base.Reset(seed)
	t.offMask, t.clock = 0xF, 0
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
	if !t.claimPort() {
		return Result{Outcome: NoPort}
	}
	// The pretranslation is read in parallel with register-file access
	// and is usable only if the access's virtual page matches the page
	// the translation was attached for (Section 3.5).
	tracked := req.Base < isa.NumIntRegs
	if tracked {
		if e := t.find(req.Base, req.OffHi&t.offMask); e != nil && e.vpn == req.VPN {
			t.clock++
			e.lastUse = t.clock
			return t.shieldHit(e.pte, req.Write, now)
		}
	}
	// A pretranslation miss is not detected until the cycle after
	// address generation; the request then needs the single-ported
	// base TLB, where it may queue (Section 4.1). A hit is attached to
	// the base register value.
	r := t.lookupBase(req, now)
	if r.Outcome == Hit && tracked {
		t.attach(req.Base, req.OffHi&t.offMask, req.VPN, r.PTE)
	}
	return r
}

// Fill implements Device.
func (t *Pretranslation) Fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := t.walk(vpn)
	if err == nil {
		t.Warm(vpn, pte, now)
	}
	return pte, err
}

// Invalidate implements Device: removing a base-TLB entry flushes the
// pretranslation cache, the same coherence rule as replacement.
func (t *Pretranslation) Invalidate(vpn uint64) {
	if t.base.Invalidate(vpn) {
		clear(t.cache)
	}
}

// FlushAll implements Device.
func (t *Pretranslation) FlushAll() {
	clear(t.cache)
	t.base.Flush()
}

// Warm implements Warmer: installs the translation into the base TLB
// like a Fill without touching the statistics. Replacing a base-TLB
// entry flushes the pretranslation cache (the paper's coherence rule),
// so an attached translation can never outlive its base-TLB entry.
// Pretranslations themselves are not warmed: they bind to register
// *values*, which the warm-up replay does not carry.
func (t *Pretranslation) Warm(vpn uint64, pte *vm.PTE, now int64) {
	if _, evicted := t.base.Insert(vpn, pte, now); evicted {
		clear(t.cache)
	}
}

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
