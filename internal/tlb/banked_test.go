package tlb

import (
	"testing"
	"testing/quick"

	"hbat/internal/vm"
)

// fill installs vpn via the device's walk path.
func fill(t *testing.T, d Device, vpn uint64) {
	t.Helper()
	if _, err := d.Fill(vpn, 0); err != nil {
		t.Fatalf("Fill(%d): %v", vpn, err)
	}
}

// banked builds the Table 2 design m, which must be a Banked.
func banked(t *testing.T, m string, as *vm.AddressSpace) *Banked {
	t.Helper()
	d, err := NewFromSpec(m, as, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d.(*Banked)
}

// sameBank returns n distinct pages that d maps to bank b.
func sameBank(d *Banked, b, n int) []uint64 {
	var vpns []uint64
	for vpn := uint64(0); len(vpns) < n; vpn++ {
		if d.SelectBank(vpn) == b {
			vpns = append(vpns, vpn)
		}
	}
	return vpns
}

func TestMultiportedPortLimit(t *testing.T) {
	for _, row := range []struct {
		m     string
		ports int
	}{{"T4", 4}, {"T2", 2}, {"T1", 1}} {
		t.Run(row.m, func(t *testing.T) {
			d := banked(t, row.m, testAS(t, 4096))
			for vpn := uint64(1); vpn <= 6; vpn++ {
				fill(t, d, vpn)
			}
			d.BeginCycle(1)
			for vpn := uint64(1); vpn <= 6; vpn++ {
				want := Hit
				if int(vpn) > row.ports {
					want = NoPort
				}
				if r := d.Lookup(Request{VPN: vpn}, 1); r.Outcome != want {
					t.Fatalf("lookup %d: outcome %v, want %v", vpn, r.Outcome, want)
				}
			}
			// Ports replenish next cycle.
			d.BeginCycle(2)
			if r := d.Lookup(Request{VPN: 6}, 2); r.Outcome != Hit {
				t.Fatalf("next-cycle lookup: %v", r.Outcome)
			}
		})
	}
}

func TestMultiportedMissThenFill(t *testing.T) {
	for _, m := range []string{"T4", "T1", "PB1"} {
		t.Run(m, func(t *testing.T) {
			d := banked(t, m, testAS(t, 4096))
			d.BeginCycle(1)
			if r := d.Lookup(Request{VPN: 42}, 1); r.Outcome != Miss {
				t.Fatalf("cold lookup: %v, want miss", r.Outcome)
			}
			fill(t, d, 42)
			d.BeginCycle(2)
			r := d.Lookup(Request{VPN: 42}, 2)
			if r.Outcome != Hit || r.PTE == nil || r.Extra != 0 {
				t.Fatalf("post-fill lookup: %+v", r)
			}
		})
	}
}

// TestPiggybackSharesInFlightTranslation: once a bank's real ports are
// taken, same-page requests share the bank's in-flight translation
// until its piggyback ports run out; each bank has its own.
func TestPiggybackSharesInFlightTranslation(t *testing.T) {
	for _, row := range []struct {
		m            string
		ports, piggy int
		banks        int // banks exercised in the same cycle
	}{{"PB2", 2, 2, 1}, {"PB1", 1, 3, 1}, {"I4/PB", 1, 3, 2}} {
		t.Run(row.m, func(t *testing.T) {
			d := banked(t, row.m, testAS(t, 4096))
			var pages []uint64
			for b := 0; b < row.banks; b++ {
				pages = append(pages, sameBank(d, b, row.ports)...)
			}
			for _, vpn := range pages {
				fill(t, d, vpn)
			}
			d.BeginCycle(1)
			for _, vpn := range pages {
				if r := d.Lookup(Request{VPN: vpn}, 1); r.Outcome != Hit {
					t.Fatalf("port lookup of %d: %v", vpn, r.Outcome)
				}
			}
			for b := 0; b < row.banks; b++ {
				vpn := pages[b*row.ports]
				// Same page: piggybacks (no port needed), zero extra latency.
				for i := 0; i < row.piggy; i++ {
					if r := d.Lookup(Request{VPN: vpn}, 1); r.Outcome != Hit || r.Extra != 0 {
						t.Fatalf("bank %d piggyback %d: %+v", b, i, r)
					}
				}
				// The bank's piggyback ports are exhausted.
				if r := d.Lookup(Request{VPN: vpn}, 1); r.Outcome != NoPort {
					t.Fatalf("bank %d piggyback %d: %v, want NoPort", b, row.piggy, r.Outcome)
				}
			}
			if got, want := d.Stats().Piggybacks, uint64(row.piggy*row.banks); got != want {
				t.Fatalf("piggyback count = %d, want %d", got, want)
			}
		})
	}
}

func TestPiggybackDifferentPageGetsNoPort(t *testing.T) {
	for _, m := range []string{"PB1", "I4/PB"} {
		t.Run(m, func(t *testing.T) {
			d := banked(t, m, testAS(t, 4096))
			vpns := sameBank(d, 0, 2)
			fill(t, d, vpns[0])
			fill(t, d, vpns[1])
			d.BeginCycle(1)
			if r := d.Lookup(Request{VPN: vpns[0]}, 1); r.Outcome != Hit {
				t.Fatal("port lookup should hit")
			}
			// Different page of the same bank: cannot piggyback, and the
			// bank's single port is busy.
			if r := d.Lookup(Request{VPN: vpns[1]}, 1); r.Outcome != NoPort {
				t.Fatalf("different page: %v, want NoPort", r.Outcome)
			}
		})
	}
}

func TestPiggybackOnMissSharesTheWalk(t *testing.T) {
	for _, m := range []string{"PB2", "PB1", "I4/PB"} {
		t.Run(m, func(t *testing.T) {
			d := banked(t, m, testAS(t, 4096))
			d.BeginCycle(1)
			if r := d.Lookup(Request{VPN: 9}, 1); r.Outcome != Miss {
				t.Fatal("cold lookup should miss")
			}
			// Same page while the missing translation is in flight: the
			// piggybacked request reports the same miss (and shares the
			// walk).
			if r := d.Lookup(Request{VPN: 9}, 1); r.Outcome != Miss {
				t.Fatalf("piggyback on miss: %v, want Miss", r.Outcome)
			}
			if d.Stats().Piggybacks != 1 {
				t.Fatalf("piggybacks = %d, want 1", d.Stats().Piggybacks)
			}
		})
	}
}

func TestStatusWriteTracking(t *testing.T) {
	as := testAS(t, 4096)
	d := banked(t, "T4", as)
	fill(t, d, 5)

	d.BeginCycle(1)
	d.Lookup(Request{VPN: 5}, 1) // first reference sets Ref
	if got := d.Stats().StatusWrites; got != 1 {
		t.Fatalf("status writes after first ref = %d, want 1", got)
	}
	d.BeginCycle(2)
	d.Lookup(Request{VPN: 5}, 2) // second read: no change
	if got := d.Stats().StatusWrites; got != 1 {
		t.Fatalf("status writes after re-read = %d, want 1", got)
	}
	d.BeginCycle(3)
	d.Lookup(Request{VPN: 5, Write: true}, 3) // first write sets Dirty
	if got := d.Stats().StatusWrites; got != 2 {
		t.Fatalf("status writes after first write = %d, want 2", got)
	}
	pte, _ := as.Lookup(5)
	if !pte.Ref || !pte.Dirty {
		t.Fatalf("PTE status not propagated: %+v", pte)
	}
}

func TestFillOutsideRegionsFails(t *testing.T) {
	d := banked(t, "T1", vm.NewAddressSpace(4096)) // no regions
	if _, err := d.Fill(123, 0); err == nil {
		t.Fatal("Fill of unmapped page succeeded")
	}
}

// selector builds a 128-entry Banked of banks one-ported banks under sel.
func selector(t *testing.T, banks int, sel Select) *Banked {
	return NewBanked("sel", testAS(t, 4096), 128, banks, 1, 0, sel, Random, 1)
}

func TestBitSelect(t *testing.T) {
	four, one := selector(t, 4, BitSelect), selector(t, 1, BitSelect)
	for vpn := uint64(0); vpn < 32; vpn++ {
		if got, want := four.SelectBank(vpn), int(vpn%4); got != want {
			t.Fatalf("BitSelect over 4 banks: page %d -> bank %d, want %d", vpn, got, want)
		}
		if got := one.SelectBank(vpn); got != 0 {
			t.Fatalf("BitSelect over 1 bank: page %d -> bank %d, want 0", vpn, got)
		}
	}
}

func TestXORSelectInRangeAndSpreads(t *testing.T) {
	xor := selector(t, 4, XORSelect)
	counts := make([]int, 4)
	for vpn := uint64(0); vpn < 4096; vpn++ {
		b := xor.SelectBank(vpn)
		if b < 0 || b > 3 {
			t.Fatalf("bank %d out of range", b)
		}
		// The three groups of two bits above the page offset, XOR'd.
		if want := int((vpn ^ vpn>>2 ^ vpn>>4) & 3); b != want {
			t.Fatalf("XORSelect: page %d -> bank %d, want %d", vpn, b, want)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c < 512 || c > 1536 {
			t.Fatalf("bank %d badly balanced: %d of 4096", b, c)
		}
	}
	// XOR folding must differ from bit selection somewhere, or it adds
	// nothing.
	bit := selector(t, 4, BitSelect)
	differs := false
	for vpn := uint64(0); vpn < 64; vpn++ {
		if xor.SelectBank(vpn) != bit.SelectBank(vpn) {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("XORSelect degenerates to BitSelect")
	}
}

func TestInterleavedBankConflict(t *testing.T) {
	for _, m := range []string{"I8", "I4", "X4"} {
		t.Run(m, func(t *testing.T) {
			d := banked(t, m, testAS(t, 4096))
			vpns := sameBank(d, 0, 2)
			other := sameBank(d, 1, 1)[0]
			for _, vpn := range append(vpns, other) {
				fill(t, d, vpn)
			}
			d.BeginCycle(1)
			if r := d.Lookup(Request{VPN: vpns[0]}, 1); r.Outcome != Hit {
				t.Fatalf("first access to bank 0: %v", r.Outcome)
			}
			// Same bank, same cycle, different page: conflict.
			if r := d.Lookup(Request{VPN: vpns[1]}, 1); r.Outcome != NoPort {
				t.Fatalf("bank conflict: %v, want NoPort", r.Outcome)
			}
			// Different bank proceeds in parallel.
			if r := d.Lookup(Request{VPN: other}, 1); r.Outcome != Hit {
				t.Fatalf("parallel bank: %v, want Hit", r.Outcome)
			}
		})
	}
}

// TestBusyPredictsNoPort: Busy names exactly the requests a Lookup
// would turn away, changes nothing, and Reject charges what the
// turned-away Lookups would have. A multi-ported TLB's Busy ignores the
// page; an interleaved one's names the bank.
func TestBusyPredictsNoPort(t *testing.T) {
	for _, m := range []string{"T2", "I4", "X4"} {
		t.Run(m, func(t *testing.T) {
			d := banked(t, m, testAS(t, 4096))
			fill(t, d, 0)
			d.BeginCycle(1)
			if d.Busy(0) || d.Busy(4) {
				t.Fatal("a port is busy before any request this cycle")
			}
			before := *d.Stats()
			d.Busy(0)
			if *d.Stats() != before {
				t.Fatal("Busy changed the statistics")
			}
			for range d.ports {
				d.Lookup(Request{VPN: 0}, 1) // bank 0
			}
			for vpn := uint64(0); vpn < 16; vpn++ {
				before := *d.Stats()
				busy := d.Busy(vpn)
				if busy != (d.SelectBank(vpn) == 0) {
					t.Fatalf("Busy(%d) = %v after filling bank 0's ports", vpn, busy)
				}
				if busy {
					if r := d.Lookup(Request{VPN: vpn}, 1); r.Outcome != NoPort {
						t.Fatalf("Busy(%d) but Lookup answered %v", vpn, r.Outcome)
					}
					walked := *d.Stats()
					*d.Stats() = before
					d.Reject(1)
					if *d.Stats() != walked {
						t.Fatalf("Reject(1) = %+v, a NoPort Lookup = %+v", *d.Stats(), walked)
					}
				}
			}
			d.BeginCycle(2)
			if d.Busy(0) {
				t.Fatal("bank 0 still busy in the next cycle")
			}
		})
	}
}

func TestInterleavedFillGoesToSelectedBank(t *testing.T) {
	for _, m := range []string{"I8", "I4", "X4"} {
		t.Run(m, func(t *testing.T) {
			d := banked(t, m, testAS(t, 4096))
			for vpn := uint64(0); vpn < 64; vpn++ {
				fill(t, d, vpn)
			}
			for vpn := uint64(0); vpn < 64; vpn++ {
				bank := d.SelectBank(vpn)
				for bi := range d.banks {
					if _, ok := d.Bank(bi).Probe(vpn); ok != (bi == bank) {
						t.Fatalf("vpn %d in bank %d: %v (selected %d)", vpn, bi, ok, bank)
					}
				}
			}
		})
	}
}

// Property: an interleaved TLB's associativity restriction — a page is
// only ever resident in its selected bank, regardless of fill order.
func TestInterleavedResidencyProperty(t *testing.T) {
	as := testAS(t, 4096)
	for _, sel := range []Select{BitSelect, XORSelect} {
		check := func(vpns []uint16) bool {
			d := NewBanked("I4", as, 32, 4, 1, 0, sel, Random, 9)
			for _, v := range vpns {
				if _, err := d.Fill(uint64(v), 0); err != nil {
					return false
				}
			}
			total := 0
			for bi := 0; bi < 4; bi++ {
				for _, vpn := range d.Bank(bi).VPNs() {
					if d.SelectBank(vpn) != bi {
						return false
					}
					total++
				}
			}
			return total <= 32
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	}
}
