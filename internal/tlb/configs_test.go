package tlb

import (
	"reflect"
	"testing"

	"hbat/internal/isa"
	"hbat/internal/vm"
)

func TestAllSpecsBuild(t *testing.T) {
	if len(DesignOrder) != 13 {
		t.Fatalf("Table 2 lists 13 designs, DesignOrder has %d", len(DesignOrder))
	}
	as := testAS(t, 4096)
	for _, m := range DesignOrder {
		spec, err := LookupSpec(m)
		if err != nil {
			t.Fatalf("LookupSpec(%s): %v", m, err)
		}
		if spec.Description == "" {
			t.Errorf("%s: empty description", m)
		}
		d := spec.Build(as, 1)
		if d.Name() != m {
			t.Errorf("built device names itself %q, want %q", d.Name(), m)
		}
		// Basic exercise: fill, hit, flush, miss.
		fill(t, d, 123)
		d.BeginCycle(1)
		if r := d.Lookup(Request{VPN: 123, Base: 8, Load: true}, 1); r.Outcome != Hit {
			t.Errorf("%s: warm lookup %v", m, r.Outcome)
		}
		d.FlushAll()
		d.BeginCycle(2)
		if r := d.Lookup(Request{VPN: 123, Base: 8, Load: true}, 2); r.Outcome != Miss {
			t.Errorf("%s: post-flush lookup %v", m, r.Outcome)
		}
	}
}

func TestLookupSpecUnknown(t *testing.T) {
	if _, err := LookupSpec("T99"); err == nil {
		t.Fatal("unknown mnemonic accepted")
	}
	if _, err := NewFromSpec("T99", testAS(t, 4096), 1); err == nil {
		t.Fatal("NewFromSpec accepted unknown mnemonic")
	}
}

func TestTable2Parameters(t *testing.T) {
	as := testAS(t, 4096)
	// Spot-check the structural parameters Table 2 specifies.
	d, _ := NewFromSpec("T4", as, 1)
	if mp := d.(*Multiported); mp.Ports() != 4 || mp.Bank().Size() != 128 {
		t.Error("T4 structure wrong")
	}
	d, _ = NewFromSpec("PB1", as, 1)
	if mp := d.(*Multiported); mp.Ports() != 1 || mp.PiggybackPorts() != 3 {
		t.Error("PB1 structure wrong")
	}
	d, _ = NewFromSpec("I8", as, 1)
	if il := d.(*Interleaved); il.Banks() != 8 || il.Bank(0).Size() != 16 {
		t.Error("I8 structure wrong")
	}
	d, _ = NewFromSpec("M4", as, 1)
	ml := d.(*Multilevel)
	if ml.L1().Size() != 4 || ml.L2().Size() != 128 {
		t.Error("M4 structure wrong")
	}
	if ml.L1().Replacement() != LRU || ml.L2().Replacement() != Random {
		t.Error("M4 replacement policies wrong")
	}
	d, _ = NewFromSpec("X4", as, 1)
	il := d.(*Interleaved)
	// XOR-select must not equal bit-select everywhere.
	diff := false
	for vpn := uint64(0); vpn < 64; vpn++ {
		if il.SelectBank(vpn) != int(vpn%4) {
			diff = true
		}
	}
	if !diff {
		t.Error("X4 select function is plain bit selection")
	}
}

func TestMissRateSimAndReplacementFor(t *testing.T) {
	if ReplacementFor(4) != LRU || ReplacementFor(16) != LRU {
		t.Error("small sizes should be LRU")
	}
	if ReplacementFor(32) != Random || ReplacementFor(128) != Random {
		t.Error("large sizes should be random")
	}
	s := NewMissRateSim(4, LRU, 1)
	for round := 0; round < 4; round++ {
		for vpn := uint64(0); vpn < 4; vpn++ {
			s.Ref(vpn)
		}
	}
	if s.Misses != 4 {
		t.Fatalf("cyclic-4 on 4-entry LRU: %d misses, want 4 cold", s.Misses)
	}
	if got := s.MissRate(); got != 0.25 {
		t.Fatalf("miss rate %f", got)
	}
}

// drive presents a pseudo-random request stream to d for cycles
// cycles, filling every miss, and returns a transcript of its answers.
// The stream covers more pages than any design holds, so replacement
// (and its generator) decides what later hits.
func drive(t *testing.T, d Device, seed uint64, cycles int) []Result {
	t.Helper()
	x := seed
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	tracker, _ := d.(RegisterTracker)
	var out []Result
	for now := int64(1); now <= int64(cycles); now++ {
		d.BeginCycle(now)
		for range 4 {
			req := Request{VPN: next(300), Base: isa.Reg(next(8)), OffHi: uint8(next(4)), Load: next(2) == 0, Write: next(4) == 0}
			r := d.Lookup(req, now)
			if r.Outcome == Miss {
				fill(t, d, req.VPN)
			}
			if r.PTE != nil {
				r.PTE = &vm.PTE{VPN: r.PTE.VPN, PFN: r.PTE.PFN}
			}
			out = append(out, r)
		}
		if tracker != nil {
			tracker.Propagate(isa.Reg(next(8)), isa.Reg(next(8)), isa.Zero)
		}
		if next(50) == 0 {
			d.Invalidate(next(300))
		}
	}
	return out
}

// TestResetEqualsNew: every Table 2 device, used and then Reset, answers
// a request stream exactly as a new device built with the same seed.
func TestResetEqualsNew(t *testing.T) {
	for _, m := range DesignOrder {
		spec, _ := LookupSpec(m)
		fresh := spec.Build(testAS(t, 4096), 7)
		used := spec.Build(testAS(t, 4096), 99)
		drive(t, used, 3, 500)
		used.FlushAll()
		used.(Resetter).Reset(testAS(t, 4096), 7)
		want, got := drive(t, fresh, 5, 500), drive(t, used, 5, 500)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a reset device answers differently from a new one", m)
		}
		if *used.Stats() != *fresh.Stats() {
			t.Errorf("%s: reset device stats %+v, new %+v", m, *used.Stats(), *fresh.Stats())
		}
	}
}
