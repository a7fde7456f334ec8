package tlb

import (
	"testing"
	"testing/quick"
)

func TestMultilevelShieldingHit(t *testing.T) {
	as := testAS(t, 4096)
	d := NewMultilevel("M8", as, 8, 4, 128, 1)
	fill(t, d, 3)

	d.BeginCycle(1)
	r := d.Lookup(Request{VPN: 3}, 1)
	if r.Outcome != Hit || r.Extra != 0 {
		t.Fatalf("L1 hit: %+v, want extra 0", r)
	}
	s := d.Stats()
	if s.ShieldHits != 1 || s.ShieldMisses != 0 {
		t.Fatalf("shield counters: %+v", s)
	}
}

func TestMultilevelL1MissPenalty(t *testing.T) {
	as := testAS(t, 4096)
	d := NewMultilevel("M4", as, 4, 4, 128, 1)
	// Fill 5 pages; the 4-entry L1 can hold only 4.
	for vpn := uint64(1); vpn <= 5; vpn++ {
		fill(t, d, vpn)
	}
	// vpn 1 was LRU-evicted from the L1 but remains in the L2.
	if _, ok := d.l1.Probe(1); ok {
		t.Fatal("vpn 1 should have been evicted from the 4-entry L1")
	}
	d.BeginCycle(10)
	r := d.Lookup(Request{VPN: 1}, 10)
	if r.Outcome != Hit {
		t.Fatalf("L2 hit: %v", r.Outcome)
	}
	// Minimum L1-miss penalty is 2 cycles (Section 4.1).
	if r.Extra != 2 {
		t.Fatalf("L1 miss extra = %d, want 2", r.Extra)
	}
	// The entry was promoted into the L1.
	if _, ok := d.l1.Probe(1); !ok {
		t.Fatal("L2 hit did not promote into L1")
	}
}

func TestMultilevelL2PortQueueing(t *testing.T) {
	as := testAS(t, 4096)
	d := NewMultilevel("M16", as, 16, 4, 128, 1)
	// Two pages resident in L2 but not L1: force them out of the L1 by
	// filling 16 other pages at later times (LRU evicts the oldest).
	now := int64(1)
	mustFill := func(vpn uint64) {
		t.Helper()
		if _, err := d.Fill(vpn, now); err != nil {
			t.Fatal(err)
		}
		now++
	}
	mustFill(100)
	mustFill(101)
	for vpn := uint64(1); vpn <= 16; vpn++ {
		mustFill(vpn)
	}
	d.BeginCycle(20)
	r1 := d.Lookup(Request{VPN: 100}, 20)
	r2 := d.Lookup(Request{VPN: 101}, 20)
	if r1.Outcome != Hit || r2.Outcome != Hit {
		t.Fatalf("outcomes: %v %v", r1.Outcome, r2.Outcome)
	}
	if r1.Extra != 2 {
		t.Fatalf("first L1 miss extra = %d, want 2", r1.Extra)
	}
	// The second request queues behind the first at the single L2 port.
	if r2.Extra != 3 {
		t.Fatalf("queued L1 miss extra = %d, want 3", r2.Extra)
	}
	if d.Stats().QueueCycles != 1 {
		t.Fatalf("queue cycles = %d, want 1", d.Stats().QueueCycles)
	}
}

func TestMultilevelInclusionOnL2Eviction(t *testing.T) {
	as := testAS(t, 4096)
	d := NewMultilevel("M8", as, 8, 4, 16, 1) // small L2 to force evictions
	for vpn := uint64(0); vpn < 64; vpn++ {
		fill(t, d, vpn)
		if !d.CheckInclusion() {
			t.Fatalf("inclusion violated after filling vpn %d", vpn)
		}
	}
}

// Property: inclusion holds after any interleaving of fills and
// lookups, and the L1 never exceeds its capacity.
func TestMultilevelInclusionProperty(t *testing.T) {
	as := testAS(t, 4096)
	check := func(ops []uint16) bool {
		d := NewMultilevel("M4", as, 4, 4, 8, 3)
		now := int64(0)
		for _, op := range ops {
			now++
			vpn := uint64(op % 32)
			d.BeginCycle(now)
			r := d.Lookup(Request{VPN: vpn, Write: op&0x100 != 0}, now)
			if r.Outcome == Miss {
				if _, err := d.Fill(vpn, now); err != nil {
					return false
				}
			}
			if !d.CheckInclusion() || len(d.l1.index) > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMultilevelStatusWriteThroughUsesL2Port(t *testing.T) {
	as := testAS(t, 4096)
	d := NewMultilevel("M8", as, 8, 4, 128, 1)
	// Fill 1..9 at increasing times: the 8-entry LRU L1 ends holding
	// 2..9, with vpn 1 only in the L2.
	for vpn := uint64(1); vpn <= 9; vpn++ {
		if _, err := d.Fill(vpn, int64(vpn)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := d.l1.Probe(1); ok {
		t.Fatal("setup: vpn 1 should have been evicted from the L1")
	}
	d.BeginCycle(30)
	r1 := d.Lookup(Request{VPN: 2, Write: true}, 30) // L1 hit + dirty write-through
	if r1.Outcome != Hit || r1.Extra != 0 {
		t.Fatalf("L1 hit with status write: %+v", r1)
	}
	r2 := d.Lookup(Request{VPN: 1}, 30) // L1 miss, queues behind the write-through
	if r2.Outcome != Hit {
		t.Fatalf("L1 miss outcome: %v", r2.Outcome)
	}
	if r2.Extra != 3 {
		t.Fatalf("L1 miss behind status write: extra = %d, want 3", r2.Extra)
	}
}

func TestMultilevelFlushAll(t *testing.T) {
	as := testAS(t, 4096)
	d := NewMultilevel("M8", as, 8, 4, 128, 1)
	fill(t, d, 1)
	d.FlushAll()
	if len(d.l1.index) != 0 || len(d.base.index) != 0 {
		t.Fatal("FlushAll left entries")
	}
	d.BeginCycle(1)
	if r := d.Lookup(Request{VPN: 1}, 1); r.Outcome != Miss {
		t.Fatalf("post-flush lookup: %v", r.Outcome)
	}
}
