package tlb

import (
	"testing"
	"testing/quick"
)

func TestBitSelect(t *testing.T) {
	sel := BitSelect(4)
	for vpn := uint64(0); vpn < 32; vpn++ {
		if got, want := sel(vpn), int(vpn%4); got != want {
			t.Fatalf("BitSelect(4)(%d) = %d, want %d", vpn, got, want)
		}
	}
}

func TestXORSelectInRangeAndSpreads(t *testing.T) {
	sel := XORSelect(4)
	counts := make([]int, 4)
	for vpn := uint64(0); vpn < 4096; vpn++ {
		b := sel(vpn)
		if b < 0 || b > 3 {
			t.Fatalf("bank %d out of range", b)
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
	bit := BitSelect(4)
	differs := false
	for vpn := uint64(0); vpn < 64; vpn++ {
		if sel(vpn) != bit(vpn) {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("XORSelect degenerates to BitSelect")
	}
}

func TestInterleavedBankConflict(t *testing.T) {
	as := testAS(t, 4096)
	d := NewInterleaved("I4", as, 128, 4, BitSelect(4), 0, Random, 1)
	fill(t, d, 0) // bank 0
	fill(t, d, 4) // bank 0
	fill(t, d, 1) // bank 1

	d.BeginCycle(1)
	if r := d.Lookup(Request{VPN: 0}, 1); r.Outcome != Hit {
		t.Fatalf("first access to bank 0: %v", r.Outcome)
	}
	// Same bank, same cycle, different page: conflict.
	if r := d.Lookup(Request{VPN: 4}, 1); r.Outcome != NoPort {
		t.Fatalf("bank conflict: %v, want NoPort", r.Outcome)
	}
	// Different bank proceeds in parallel.
	if r := d.Lookup(Request{VPN: 1}, 1); r.Outcome != Hit {
		t.Fatalf("parallel bank: %v, want Hit", r.Outcome)
	}
}

// TestInterleavedBusyPredictsNoPort: Busy names exactly the requests a
// Lookup would turn away, changes nothing, and Reject charges what the
// turned-away Lookups would have.
func TestInterleavedBusyPredictsNoPort(t *testing.T) {
	as := testAS(t, 4096)
	d := NewInterleaved("I4", as, 128, 4, BitSelect(4), 0, Random, 1)
	fill(t, d, 0)
	d.BeginCycle(1)
	if d.Busy(0) || d.Busy(4) {
		t.Fatal("a bank is busy before any request this cycle")
	}
	before := *d.Stats()
	d.Busy(0)
	if *d.Stats() != before {
		t.Fatal("Busy changed the statistics")
	}
	d.Lookup(Request{VPN: 0}, 1) // bank 0
	for vpn := uint64(0); vpn < 8; vpn++ {
		before := *d.Stats()
		busy := d.Busy(vpn)
		if busy != (vpn%4 == 0) {
			t.Fatalf("Busy(%d) = %v after a request to bank 0", vpn, busy)
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
}

func TestInterleavedFillGoesToSelectedBank(t *testing.T) {
	as := testAS(t, 4096)
	d := NewInterleaved("I8", as, 128, 8, BitSelect(8), 0, Random, 1)
	for vpn := uint64(0); vpn < 64; vpn++ {
		fill(t, d, vpn)
	}
	for vpn := uint64(0); vpn < 64; vpn++ {
		bank := d.SelectBank(vpn)
		if _, ok := d.Bank(bank).Probe(vpn); !ok {
			t.Fatalf("vpn %d not in its selected bank %d", vpn, bank)
		}
		for bi := 0; bi < len(d.banks); bi++ {
			if bi == bank {
				continue
			}
			if _, ok := d.Bank(bi).Probe(vpn); ok {
				t.Fatalf("vpn %d leaked into bank %d (selected %d)", vpn, bi, bank)
			}
		}
	}
}

func TestInterleavedPerBankPiggyback(t *testing.T) {
	as := testAS(t, 4096)
	d := NewInterleaved("I4/PB", as, 128, 4, BitSelect(4), 3, Random, 1)
	fill(t, d, 0)
	fill(t, d, 4)

	d.BeginCycle(1)
	if r := d.Lookup(Request{VPN: 0}, 1); r.Outcome != Hit {
		t.Fatal("first access should hit")
	}
	// Same bank, same page: piggybacks despite the busy bank.
	if r := d.Lookup(Request{VPN: 0}, 1); r.Outcome != Hit {
		t.Fatalf("same-page piggyback: %v", r.Outcome)
	}
	// Same bank, different page: still a conflict.
	if r := d.Lookup(Request{VPN: 4}, 1); r.Outcome != NoPort {
		t.Fatalf("different-page conflict: %v, want NoPort", r.Outcome)
	}
	if d.Stats().Piggybacks != 1 {
		t.Fatalf("piggybacks = %d, want 1", d.Stats().Piggybacks)
	}
}

// Property: an interleaved TLB's associativity restriction — a page is
// only ever resident in its selected bank, regardless of fill order.
func TestInterleavedResidencyProperty(t *testing.T) {
	as := testAS(t, 4096)
	check := func(vpns []uint16) bool {
		d := NewInterleaved("I4", as, 32, 4, BitSelect(4), 0, Random, 9)
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
