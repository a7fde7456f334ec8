package tlb

import (
	"testing"
	"testing/quick"

	"hbat/internal/isa"
	"hbat/internal/vm"
)

func newP8(t *testing.T) *Pretranslation {
	t.Helper()
	return NewPretranslation("P8", testAS(t, 4096), 8, 4, 128, 1)
}

func TestPretranslationAttachAndReuse(t *testing.T) {
	d := newP8(t)
	fill(t, d, 10)

	// First dereference through base register $t0: pretranslation cache
	// misses, base TLB hits with >=1 extra cycle, translation attaches.
	d.BeginCycle(1)
	r := d.Lookup(Request{VPN: 10, Base: isa.T0, Load: true}, 1)
	if r.Outcome != Hit || r.Extra < 1 {
		t.Fatalf("first dereference: %+v, want hit with extra >= 1", r)
	}
	if d.CacheLen() != 1 {
		t.Fatalf("cache len = %d, want 1", d.CacheLen())
	}

	// Second dereference: shielded, zero extra latency.
	d.BeginCycle(2)
	r = d.Lookup(Request{VPN: 10, Base: isa.T0, Load: true}, 2)
	if r.Outcome != Hit || r.Extra != 0 {
		t.Fatalf("reuse: %+v, want hit with extra 0", r)
	}
	if d.Stats().ShieldHits != 1 {
		t.Fatalf("shield hits = %d, want 1", d.Stats().ShieldHits)
	}
}

func TestPretranslationVPNMismatchFallsThrough(t *testing.T) {
	d := newP8(t)
	fill(t, d, 10)
	fill(t, d, 11)

	d.BeginCycle(1)
	d.Lookup(Request{VPN: 10, Base: isa.T0, Load: true}, 1)
	// The pointer strode to the next page: attached VPN no longer
	// matches, so the base TLB is consulted again (and re-attaches).
	d.BeginCycle(2)
	r := d.Lookup(Request{VPN: 11, Base: isa.T0, Load: true}, 2)
	if r.Outcome != Hit || r.Extra < 1 {
		t.Fatalf("strided dereference: %+v", r)
	}
	d.BeginCycle(3)
	r = d.Lookup(Request{VPN: 11, Base: isa.T0, Load: true}, 3)
	if r.Extra != 0 {
		t.Fatalf("re-attached dereference: %+v", r)
	}
}

func TestPretranslationOffsetBitsDistinguishEntries(t *testing.T) {
	d := newP8(t)
	fill(t, d, 10)
	fill(t, d, 20)

	// Same base register, different offset-high bits: two entries (a
	// single pointer may reference multiple pages, Section 3.5).
	d.BeginCycle(1)
	d.Lookup(Request{VPN: 10, Base: isa.T0, OffHi: 0, Load: true}, 1)
	d.BeginCycle(2)
	d.Lookup(Request{VPN: 20, Base: isa.T0, OffHi: 3, Load: true}, 2)
	if d.CacheLen() != 2 {
		t.Fatalf("cache len = %d, want 2", d.CacheLen())
	}
	d.BeginCycle(3)
	if r := d.Lookup(Request{VPN: 10, Base: isa.T0, OffHi: 0, Load: true}, 3); r.Extra != 0 {
		t.Fatalf("entry 0 lost: %+v", r)
	}
	d.BeginCycle(4)
	if r := d.Lookup(Request{VPN: 20, Base: isa.T0, OffHi: 3, Load: true}, 4); r.Extra != 0 {
		t.Fatalf("entry 3 lost: %+v", r)
	}
}

func TestPretranslationPropagation(t *testing.T) {
	d := newP8(t)
	fill(t, d, 10)
	d.BeginCycle(1)
	d.Lookup(Request{VPN: 10, Base: isa.T0, Load: true}, 1)

	// q := p + 8 propagates p's pretranslation to q.
	d.Propagate(isa.T1, isa.T0, 255)
	d.BeginCycle(2)
	r := d.Lookup(Request{VPN: 10, Base: isa.T1, Load: true}, 2)
	if r.Outcome != Hit || r.Extra != 0 {
		t.Fatalf("dereference through copied pointer: %+v", r)
	}

	// Overwriting q with an unrelated value drops its entries.
	d.InvalidateReg(isa.T1)
	d.BeginCycle(3)
	if r := d.Lookup(Request{VPN: 10, Base: isa.T1, Load: true}, 3); r.Extra == 0 {
		t.Fatalf("invalidated pointer still shielded: %+v", r)
	}
}

func TestPretranslationInPlaceArithmeticKeepsEntries(t *testing.T) {
	d := newP8(t)
	fill(t, d, 10)
	d.BeginCycle(1)
	d.Lookup(Request{VPN: 10, Base: isa.T0, Load: true}, 1)

	// p += 8 (dst == src): the attachment survives; the VPN check
	// validates it on the next dereference.
	d.Propagate(isa.T0, isa.T0, 255)
	d.BeginCycle(2)
	if r := d.Lookup(Request{VPN: 10, Base: isa.T0, Load: true}, 2); r.Extra != 0 {
		t.Fatalf("in-place arithmetic lost the attachment: %+v", r)
	}
}

func TestPretranslationPropagateWithoutSourceInvalidatesDest(t *testing.T) {
	d := newP8(t)
	fill(t, d, 10)
	d.BeginCycle(1)
	d.Lookup(Request{VPN: 10, Base: isa.T2, Load: true}, 1)
	// T2 has an entry; now T2 = T3 + T4 where neither source has one.
	d.Propagate(isa.T2, isa.T3, isa.T4)
	if d.hasEntries(isa.T2) {
		t.Fatal("dest entries survived pointer-free arithmetic")
	}
}

func TestPretranslationFlushOnBaseReplacement(t *testing.T) {
	as := testAS(t, 4096)
	d := NewPretranslation("P8", as, 8, 4, 4, 1) // tiny base TLB
	fill(t, d, 1)
	d.BeginCycle(1)
	d.Lookup(Request{VPN: 1, Base: isa.T0, Load: true}, 1)
	if d.CacheLen() != 1 {
		t.Fatal("no attachment")
	}
	// Fill 4 more pages: the 4-entry base TLB must replace, which
	// flushes the pretranslation cache (the paper's coherence rule).
	for vpn := uint64(2); vpn <= 5; vpn++ {
		fill(t, d, vpn)
	}
	if d.CacheLen() != 0 {
		t.Fatalf("cache len = %d after base replacement, want 0 (flushed)", d.CacheLen())
	}
}

func TestPretranslationLRUCapacity(t *testing.T) {
	d := newP8(t)
	for vpn := uint64(1); vpn <= 12; vpn++ {
		fill(t, d, vpn)
	}
	for i := 0; i < 12; i++ {
		d.BeginCycle(int64(i + 1))
		d.Lookup(Request{VPN: uint64(i + 1), Base: isa.Reg(i % 16), OffHi: uint8(i / 16), Load: true}, int64(i+1))
	}
	if d.CacheLen() != 8 {
		t.Fatalf("cache len = %d, want capacity 8", d.CacheLen())
	}
}

// Property: a pretranslation hit never returns a PTE for the wrong
// page — the VPN check must hold under arbitrary attach/propagate/
// invalidate sequences.
func TestPretranslationSoundnessProperty(t *testing.T) {
	check := func(ops []uint16) bool {
		as := vm.NewAddressSpace(4096)
		as.AddRegion(vm.Region{Name: "all", Base: 0, Size: 1 << 40, Perm: vm.PermRW})
		d := NewPretranslation("P8", as, 8, 4, 64, 5)
		now := int64(0)
		for _, op := range ops {
			now++
			d.BeginCycle(now)
			base := isa.Reg(op % 8)
			vpn := uint64((op >> 3) % 16)
			switch (op >> 8) % 4 {
			case 0, 1:
				r := d.Lookup(Request{VPN: vpn, Base: base, Load: true}, now)
				if r.Outcome == Miss {
					if _, err := d.Fill(vpn, now); err != nil {
						return false
					}
				} else if r.Outcome == Hit {
					if r.PTE == nil || r.PTE.VPN != vpn {
						return false // wrong translation!
					}
				}
			case 2:
				d.Propagate(base, isa.Reg((op>>5)%8), 255)
			case 3:
				d.InvalidateReg(base)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
