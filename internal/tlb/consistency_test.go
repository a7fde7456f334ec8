package tlb

import (
	"testing"

	"hbat/internal/isa"
)

// TestInvalidateAllDesigns: after a shootdown, no design may service
// the page from any cached structure — the next access must walk.
func TestInvalidateAllDesigns(t *testing.T) {
	for _, mnemonic := range DesignOrder {
		t.Run(mnemonic, func(t *testing.T) {
			as := testAS(t, 4096)
			d, err := NewFromSpec(mnemonic, as, 1)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, d, 77)
			d.BeginCycle(1)
			if r := d.Lookup(Request{VPN: 77, Base: isa.T0, Load: true}, 1); r.Outcome != Hit {
				t.Fatalf("warm lookup: %v", r.Outcome)
			}
			d.Invalidate(77)
			// Drain any latency-modeling state and re-probe over fresh
			// cycles: every retry must end in Miss, never a stale Hit.
			for now := int64(10); now < 16; now++ {
				d.BeginCycle(now)
				r := d.Lookup(Request{VPN: 77, Base: isa.T0, Load: true}, now)
				switch r.Outcome {
				case Hit:
					t.Fatalf("stale hit after shootdown at cycle %d", now)
				case Miss:
					return // correct
				}
			}
			t.Fatal("lookup never resolved after shootdown")
		})
	}
}

// TestInvalidateIsTargeted: shooting down one page must not disturb
// translations of other pages.
func TestInvalidateIsTargeted(t *testing.T) {
	for _, mnemonic := range DesignOrder {
		t.Run(mnemonic, func(t *testing.T) {
			as := testAS(t, 4096)
			d, err := NewFromSpec(mnemonic, as, 1)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, d, 10)
			fill(t, d, 11)
			d.Invalidate(10)
			d.BeginCycle(1)
			if r := d.Lookup(Request{VPN: 11}, 1); r.Outcome != Hit {
				t.Fatalf("unrelated page lost: %v", r.Outcome)
			}
		})
	}
}

// TestMultilevelInvalidateMaintainsInclusion: the L1 never retains an
// entry the L2 dropped.
func TestMultilevelInvalidateMaintainsInclusion(t *testing.T) {
	as := testAS(t, 4096)
	d := NewMultilevel("M8", as, 8, 4, 128, 1)
	for vpn := uint64(1); vpn <= 6; vpn++ {
		fill(t, d, vpn)
	}
	for vpn := uint64(1); vpn <= 6; vpn += 2 {
		d.Invalidate(vpn)
		if !d.CheckInclusion() {
			t.Fatalf("inclusion violated after invalidating %d", vpn)
		}
		if _, ok := d.l1.Probe(vpn); ok {
			t.Fatalf("L1 retains shot-down vpn %d", vpn)
		}
	}
}

// TestPretranslationInvalidateKillsAttachments: a shootdown of a page
// whose translation is attached to a register must flush it (the
// paper's coherence rule extends to consistency operations).
func TestPretranslationInvalidateKillsAttachments(t *testing.T) {
	as := testAS(t, 4096)
	d := NewPretranslation("P8", as, 8, 4, 128, 1)
	fill(t, d, 5)
	d.BeginCycle(1)
	d.Lookup(Request{VPN: 5, Base: isa.T0, Load: true}, 1)
	if d.CacheLen() == 0 {
		t.Fatal("setup: nothing attached")
	}
	d.Invalidate(5)
	if d.CacheLen() != 0 {
		t.Fatal("attachment survived the shootdown")
	}
}
