package tlb

import (
	"fmt"
	"slices"
	"testing"

	"hbat/internal/isa"
	"hbat/internal/vm"
)

// refShieldRows are the shielded rows of Table 2 read as the paper
// states them: a 4-ported shield of entries entries over a 128-entry,
// single-ported, random-replaced base TLB. An M* shield is an LRU L1
// TLB (Section 3.3); P8's is a pretranslation cache (Section 3.5).
var refShieldRows = []struct {
	m       string
	entries int
	pre     bool
}{
	{"M16", 16, false}, {"M8", 8, false}, {"M4", 4, false}, {"P8", 8, true},
}

// refShielded is the plain model the multi-level and pretranslation
// designs are checked against (Sections 3.3, 3.5 and 4.1). The shield
// has four ports a cycle; a fifth request is turned away (NoPort). A
// shield hit costs no cycle. A shield miss reaches the base TLB the
// next cycle, whose one port serves one access a cycle in request
// order: a request starts at its arrival or the cycle after the
// previous access started, whichever is later.
// An M* request then spends one more cycle in the L2 (at least 2 in
// all); a P8 request is late only by the cycle the miss took to detect
// (at least 1). A shield hit on a page not yet referenced, or a store
// to a page not yet dirty, writes the status through to the base TLB:
// it takes a base-port cycle but adds no latency to the request.
//
// M*: the L1 (LRU, seeded seed) and the L2 (random, seed+0x51ed) are
// Banks; a fill loads both, an L2 hit is promoted into the L1, and a
// page that leaves the L2 leaves the L1 (inclusion).
//
// P8: the cache holds at most entries (register, offset bits) tags,
// each with the page it was attached for, and a lookup through that
// register and offset bits hits only on that same page. A base-TLB hit
// attaches its translation, to the first free slot or else in place of
// the least recently used tag. Propagate copies the first tracked
// source's tags to the destination, in slot order; InvalidateReg drops
// a register's tags; any base-TLB eviction or invalidation empties the
// cache. The base TLB is seeded seed.
type refShielded struct {
	pre    bool
	as     *vm.AddressSpace
	l1     *Bank // M* only
	base   *Bank
	slots  []refTag // P8 only
	lru    []int    // P8: occupied slots, least recently used first
	last   int64    // the cycle the latest base-port access started
	used   int
	stats  Stats
	status map[*vm.PTE]refStatus
}

type refTag struct {
	valid bool
	reg   isa.Reg
	off   uint8
	vpn   uint64
	pte   *vm.PTE
}

func newRefShielded(row int, as *vm.AddressSpace, seed uint64) *refShielded {
	g := refShieldRows[row]
	r := &refShielded{pre: g.pre, as: as, status: map[*vm.PTE]refStatus{}}
	if g.pre {
		r.base = NewBank(128, Random, seed)
		r.slots = make([]refTag, g.entries)
	} else {
		r.l1 = NewBank(g.entries, LRU, seed)
		r.base = NewBank(128, Random, seed+0x51ed)
	}
	return r
}

// book takes the base port's next cycle at or after arrive.
func (r *refShielded) book(arrive int64) int64 {
	r.last = max(arrive, r.last+1)
	return r.last
}

// touch sets pte's status bits for an access and reports whether they
// changed, which is a write-through to the base TLB.
func (r *refShielded) touch(pte *vm.PTE, write bool) bool {
	st := r.status[pte]
	r.status[pte] = refStatus{ref: true, dirty: st.dirty || write}
	if st.ref && (!write || st.dirty) {
		return false
	}
	r.stats.StatusWrites++
	return true
}

func (r *refShielded) lookup(req Request, now int64) Result {
	if r.used == 4 {
		r.stats.NoPorts++
		return Result{Outcome: NoPort}
	}
	r.used++
	r.stats.Lookups++
	if pte := r.shieldHit(req, now); pte != nil {
		r.stats.Hits++
		r.stats.ShieldHits++
		if r.touch(pte, req.Write) {
			r.book(now + 1)
		}
		return Result{Outcome: Hit, PTE: pte}
	}
	r.stats.ShieldMisses++
	start := r.book(now + 1)
	r.stats.QueueCycles += uint64(start - now - 1)
	extra := start - now
	if !r.pre {
		extra++ // the L2 access
	}
	pte, ok := r.base.Lookup(req.VPN, start)
	if !ok {
		r.stats.Misses++
		return Result{Outcome: Miss}
	}
	r.stats.Hits++
	r.stats.ExtraCycles += uint64(extra)
	r.touch(pte, req.Write)
	switch {
	case !r.pre:
		r.l1.Insert(req.VPN, pte, now)
	case req.Base < isa.NumIntRegs:
		r.attach(req.Base, req.OffHi&0xF, req.VPN, pte)
	}
	return Result{Outcome: Hit, Extra: extra, PTE: pte}
}

func (r *refShielded) shieldHit(req Request, now int64) *vm.PTE {
	if !r.pre {
		pte, _ := r.l1.Lookup(req.VPN, now)
		return pte
	}
	i := r.find(req.Base, req.OffHi&0xF)
	if i < 0 || r.slots[i].vpn != req.VPN {
		return nil
	}
	r.use(i)
	return r.slots[i].pte
}

func (r *refShielded) find(reg isa.Reg, off uint8) int {
	return slices.IndexFunc(r.slots, func(s refTag) bool { return s.valid && s.reg == reg && s.off == off })
}

// use makes slot i the most recently used.
func (r *refShielded) use(i int) {
	r.lru = append(slices.DeleteFunc(r.lru, func(j int) bool { return j == i }), i)
}

func (r *refShielded) attach(reg isa.Reg, off uint8, vpn uint64, pte *vm.PTE) {
	i := r.find(reg, off)
	if i < 0 {
		i = slices.IndexFunc(r.slots, func(s refTag) bool { return !s.valid })
	}
	if i < 0 {
		i = r.lru[0]
	}
	r.slots[i] = refTag{valid: true, reg: reg, off: off, vpn: vpn, pte: pte}
	r.use(i)
}

func (r *refShielded) tracks(reg isa.Reg) bool {
	return reg < isa.NumIntRegs && slices.ContainsFunc(r.slots, func(s refTag) bool { return s.valid && s.reg == reg })
}

func (r *refShielded) invalidateReg(reg isa.Reg) {
	for i, s := range r.slots {
		if s.valid && s.reg == reg {
			r.slots[i] = refTag{}
			r.lru = slices.DeleteFunc(r.lru, func(j int) bool { return j == i })
		}
	}
}

func (r *refShielded) propagate(dst, src1, src2 isa.Reg) {
	if dst >= isa.NumIntRegs || dst == isa.Zero {
		return
	}
	src := src1
	if !r.tracks(src) {
		src = src2
	}
	switch {
	case !r.tracks(src):
		r.invalidateReg(dst)
		return
	case src == dst:
		return
	}
	r.invalidateReg(dst)
	var copies []refTag
	for _, s := range r.slots {
		if s.valid && s.reg == src {
			copies = append(copies, s)
		}
	}
	for _, c := range copies {
		r.attach(dst, c.off, c.vpn, c.pte)
	}
}

func (r *refShielded) flushCache() {
	clear(r.slots)
	r.lru = r.lru[:0]
}

// warm installs vpn as a walk does.
func (r *refShielded) warm(vpn uint64, pte *vm.PTE, now int64) {
	victim, evicted := r.base.Insert(vpn, pte, now)
	switch {
	case r.pre && evicted:
		r.flushCache()
	case !r.pre:
		if evicted {
			r.l1.Invalidate(victim)
		}
		r.l1.Insert(vpn, pte, now)
	}
}

func (r *refShielded) fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := r.as.Walk(vpn)
	if err != nil {
		return nil, err
	}
	r.warm(vpn, pte, now)
	r.stats.Fills++
	return pte, nil
}

func (r *refShielded) invalidate(vpn uint64) {
	if r.base.Invalidate(vpn) && r.pre {
		r.flushCache()
	}
	if !r.pre {
		r.l1.Invalidate(vpn)
	}
}

func (r *refShielded) flushAll() {
	r.base.Flush()
	if r.pre {
		r.flushCache()
	} else {
		r.l1.Flush()
	}
}

// shieldedParts returns a shielded device's L1 (nil for P8), its base
// TLB and its pretranslation cache (nil for M*).
func shieldedParts(d Device) (l1, base *Bank, cache []preEntry) {
	switch d := d.(type) {
	case *Multilevel:
		return d.l1, d.base, nil
	case *Pretranslation:
		return nil, d.base, d.cache
	}
	panic(fmt.Sprintf("%T is not a shielded design", d))
}

// sameContents fails unless got holds exactly the pages want holds.
func sameContents(t testing.TB, what string, got, want *Bank) {
	t.Helper()
	if g, w := len(got.VPNs()), len(want.VPNs()); g != w {
		t.Fatalf("%s holds %d pages, reference %d", what, g, w)
	}
	for _, vpn := range want.VPNs() {
		if _, ok := got.Probe(vpn); !ok {
			t.Fatalf("%s lacks page %d the reference holds", what, vpn)
		}
	}
}

// shieldRun drives d (Table 2 row row, built over as with seed) and a
// new reference with one stream and fails at the first request, fill,
// counter, status bit or structure on which they differ. Each cycle's
// batch is in age order; each request dereferences one of eight
// registers, whose pointer sometimes moves to another page, and a
// load's offset bits pick a nearby page. Between cycles come fills of
// most misses, register hooks (P8), and now and then an Invalidate,
// Warm or FlushAll. It returns a transcript of d's answers.
func shieldRun(t testing.TB, d Device, row int, as *vm.AddressSpace, seed uint64, s refShape) []string {
	t.Helper()
	ref := newRefShielded(row, as, seed)
	tracker, _ := d.(RegisterTracker)
	x := s.seed | 1
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	reg := func() isa.Reg {
		if next(16) == 0 {
			return 255 // not an integer register
		}
		return isa.Reg(next(8))
	}
	var ptr [8]uint64
	var out []string
	check := func(now int64, op ...any) {
		t.Helper()
		if *d.Stats() != ref.stats {
			t.Fatalf("cycle %d, after %v: stats %+v, reference %+v", now, op, *d.Stats(), ref.stats)
		}
		if ml, ok := d.(*Multilevel); ok && !ml.CheckInclusion() {
			t.Fatalf("cycle %d, after %v: an L1 entry is not in the L2", now, op)
		}
		if _, _, cache := shieldedParts(d); cache != nil {
			for i, e := range cache {
				w := ref.slots[i]
				if e.valid != w.valid || (w.valid && (e.reg != w.reg || e.offHi != w.off || e.vpn != w.vpn || e.pte != w.pte)) {
					t.Fatalf("cycle %d, after %v: cache slot %d %+v, reference %+v", now, op, i, e, w)
				}
			}
		}
	}
	for now := int64(1); now <= int64(s.cycles); now++ {
		d.BeginCycle(now)
		ref.used = 0
		var missed []uint64
		for i := 1 + next(s.batch); i > 0; i-- {
			base := reg()
			p := &ptr[base%8]
			if next(3) == 0 {
				*p = uint64(next(s.pages)) // the pointer moves
			}
			req := Request{VPN: *p, Base: base, Write: next(4) == 0}
			if !req.Write && next(4) != 0 {
				req.Load, req.OffHi = true, uint8(next(3))
				req.VPN = (req.VPN + uint64(req.OffHi)) % uint64(s.pages)
			}
			got, want := d.Lookup(req, now), ref.lookup(req, now)
			if got != want {
				t.Fatalf("cycle %d: Lookup(%+v) = %+v, reference %+v", now, req, got, want)
			}
			if got.PTE != nil {
				if st := ref.status[got.PTE]; got.PTE.Ref != st.ref || got.PTE.Dirty != st.dirty {
					t.Fatalf("cycle %d: page %d status ref=%v dirty=%v, reference %+v",
						now, req.VPN, got.PTE.Ref, got.PTE.Dirty, st)
				}
				out = append(out, fmt.Sprint(got.Outcome, got.Extra, got.PTE.VPN, got.PTE.PFN))
			} else {
				out = append(out, fmt.Sprint(got.Outcome, got.Extra))
			}
			if got.Outcome == Miss {
				missed = append(missed, req.VPN)
			}
		}
		check(now, "lookups")
		for _, vpn := range missed {
			if next(4) == 0 {
				continue // the walk has not finished yet
			}
			got, gerr := d.Fill(vpn, now)
			want, werr := ref.fill(vpn, now)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("cycle %d: Fill(%d) = %v, %v; reference %v, %v", now, vpn, got, gerr, want, werr)
			}
			check(now, "Fill ", vpn)
		}
		if tracker != nil {
			for range next(3) {
				dst, src1, src2 := reg(), reg(), reg()
				tracker.Propagate(dst, src1, src2)
				ref.propagate(dst, src1, src2)
				check(now, "Propagate ", dst, src1, src2)
			}
			if next(4) == 0 {
				dst := reg()
				tracker.InvalidateReg(dst)
				ref.invalidateReg(dst)
				check(now, "InvalidateReg ", dst)
			}
		}
		switch next(16) {
		case 0:
			vpn := uint64(next(s.pages))
			d.Invalidate(vpn)
			ref.invalidate(vpn)
			check(now, "Invalidate ", vpn)
		case 1:
			vpn := uint64(next(s.pages - 1))
			pte, err := as.Walk(vpn)
			if err != nil {
				t.Fatal(err)
			}
			d.(Warmer).Warm(vpn, pte, now)
			ref.warm(vpn, pte, now)
			check(now, "Warm ", vpn)
		case 2:
			if next(4) == 0 {
				d.FlushAll()
				ref.flushAll()
				check(now, "FlushAll")
			}
		}
	}
	l1, base, _ := shieldedParts(d)
	sameContents(t, "base TLB", base, ref.base)
	if l1 != nil {
		sameContents(t, "L1", l1, ref.l1)
	}
	return out
}

// checkShielded builds design row's Table 2 device, checks it against
// the reference, then checks that the device reset after a run with
// another seed answers as a new one does, both against the reference
// and answer for answer.
func checkShielded(t testing.TB, row int, s refShape) {
	m := refShieldRows[row].m
	spec, err := LookupSpec(m)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	as := refAS(s.pages)
	want := shieldRun(t, spec.Build(as, seed), row, as, seed, s)

	as1 := refAS(s.pages)
	used := spec.Build(as1, seed+1)
	warmup := s
	warmup.seed, warmup.cycles = s.seed+1, s.cycles/2
	shieldRun(t, used, row, as1, seed+1, warmup)
	as2 := refAS(s.pages)
	used.(Resetter).Reset(as2, seed)
	got := shieldRun(t, used, row, as2, seed, s)
	if len(got) != len(want) {
		t.Fatalf("%s: reset device answered %d requests, new device %d", m, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: request %d: reset device %s, new device %s", m, i, got[i], want[i])
		}
	}
}

// TestShieldedMatchesReference drives every multi-level and
// pretranslation design of Table 2 and the reference model with the
// same seeded random per-cycle batches.
func TestShieldedMatchesReference(t *testing.T) {
	shapes := []refShape{
		{batch: 4, pages: 8, cycles: 2000},   // fits every shield: hits and status write-throughs
		{batch: 8, pages: 40, cycles: 2000},  // wide batches: NoPort and base-port queueing
		{batch: 6, pages: 300, cycles: 3000}, // more pages than the base holds: evictions
	}
	for row := range refShieldRows {
		t.Run(refShieldRows[row].m, func(t *testing.T) {
			for i, s := range shapes {
				for seed := uint64(1); seed <= 3; seed++ {
					s.seed = seed*1000 + uint64(i)
					checkShielded(t, row, s)
				}
			}
		})
	}
}

// FuzzShielded checks one shielded design against the reference for a
// fuzzed stream: design (an index into Table 2's shielded rows), stream
// seed, largest batch and page count.
func FuzzShielded(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(4), uint8(8))
	f.Add(uint8(2), uint64(2), uint8(8), uint8(40))
	f.Add(uint8(3), uint64(3), uint8(3), uint8(2))
	f.Add(uint8(3), uint64(4), uint8(6), uint8(200))
	f.Fuzz(func(t *testing.T, design uint8, seed uint64, batch, pages uint8) {
		checkShielded(t, int(design)%len(refShieldRows), refShape{
			seed:   seed,
			batch:  1 + int(batch)%12,
			pages:  2 + int(pages),
			cycles: 300,
		})
	})
}
