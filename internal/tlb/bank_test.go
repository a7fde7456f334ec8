package tlb

import (
	"testing"
	"testing/quick"

	"hbat/internal/vm"
)

func testAS(t *testing.T, pageSize uint64) *vm.AddressSpace {
	t.Helper()
	as := vm.NewAddressSpace(pageSize)
	as.AddRegion(vm.Region{Name: "all", Base: 0, Size: 1 << 40, Perm: vm.PermRW})
	return as
}

func TestBankLookupInsert(t *testing.T) {
	b := NewBank(4, LRU, 1)
	if _, ok := b.Lookup(10, 1); ok {
		t.Fatal("empty bank hit")
	}
	pte := &vm.PTE{VPN: 10, PFN: 99}
	b.Insert(10, pte, 2)
	got, ok := b.Lookup(10, 3)
	if !ok || got != pte {
		t.Fatalf("lookup after insert: ok=%v pte=%v", ok, got)
	}
	if len(b.index) != 1 {
		t.Fatalf("Len = %d, want 1", len(b.index))
	}
}

func TestBankLRUEviction(t *testing.T) {
	b := NewBank(3, LRU, 1)
	b.Insert(1, nil, 1)
	b.Insert(2, nil, 2)
	b.Insert(3, nil, 3)
	// Touch 1 so 2 is the LRU victim.
	b.Lookup(1, 4)
	evicted, ok := b.Insert(4, nil, 5)
	if !ok || evicted != 2 {
		t.Fatalf("evicted %d (ok=%v), want 2", evicted, ok)
	}
	if _, hit := b.Probe(2); hit {
		t.Fatal("evicted entry still present")
	}
	for _, vpn := range []uint64{1, 3, 4} {
		if _, hit := b.Probe(vpn); !hit {
			t.Fatalf("vpn %d missing", vpn)
		}
	}
}

func TestBankFIFOEviction(t *testing.T) {
	b := NewBank(2, FIFO, 1)
	b.Insert(1, nil, 1)
	b.Insert(2, nil, 2)
	b.Lookup(1, 3) // recency must NOT matter for FIFO
	evicted, ok := b.Insert(3, nil, 4)
	if !ok || evicted != 1 {
		t.Fatalf("evicted %d (ok=%v), want 1 (oldest fill)", evicted, ok)
	}
}

func TestBankRandomEvictionIsValidEntry(t *testing.T) {
	b := NewBank(4, Random, 42)
	for vpn := uint64(0); vpn < 4; vpn++ {
		b.Insert(vpn, nil, int64(vpn))
	}
	for vpn := uint64(4); vpn < 100; vpn++ {
		evicted, ok := b.Insert(vpn, nil, int64(vpn))
		if !ok {
			t.Fatal("full bank must evict")
		}
		if _, hit := b.Probe(evicted); hit {
			t.Fatalf("evicted vpn %d still present", evicted)
		}
		if len(b.index) != 4 {
			t.Fatalf("Len = %d, want 4", len(b.index))
		}
	}
}

func TestBankInvalidateAndFlush(t *testing.T) {
	b := NewBank(4, LRU, 1)
	b.Insert(7, nil, 1)
	if !b.Invalidate(7) {
		t.Fatal("Invalidate of resident vpn returned false")
	}
	if b.Invalidate(7) {
		t.Fatal("Invalidate of absent vpn returned true")
	}
	b.Insert(1, nil, 2)
	b.Insert(2, nil, 3)
	b.Flush()
	if len(b.index) != 0 {
		t.Fatalf("Len after flush = %d", len(b.index))
	}
}

func TestBankReinsertRefreshes(t *testing.T) {
	b := NewBank(2, LRU, 1)
	b.Insert(1, nil, 1)
	b.Insert(2, nil, 2)
	b.Insert(1, &vm.PTE{PFN: 5}, 3) // refresh, no eviction
	if len(b.index) != 2 {
		t.Fatalf("Len = %d, want 2", len(b.index))
	}
	pte, _ := b.Probe(1)
	if pte == nil || pte.PFN != 5 {
		t.Fatalf("reinsert did not update PTE: %v", pte)
	}
	// 2 is now the LRU victim.
	if evicted, _ := b.Insert(3, nil, 4); evicted != 2 {
		t.Fatalf("evicted %d, want 2", evicted)
	}
}

// Property: after any sequence of inserts, the bank never exceeds its
// capacity, every resident VPN probes successfully, and a hit always
// returns the most recently inserted PTE for that VPN.
func TestBankProperties(t *testing.T) {
	check := func(ops []uint16, replRaw uint8) bool {
		repl := Replacement(replRaw % 3)
		b := NewBank(8, repl, 7)
		latest := map[uint64]*vm.PTE{}
		for i, op := range ops {
			vpn := uint64(op % 64)
			pte := &vm.PTE{VPN: vpn, PFN: uint64(i + 1)}
			b.Insert(vpn, pte, int64(i))
			latest[vpn] = pte
			if len(b.index) > 8 {
				return false
			}
		}
		for _, vpn := range b.VPNs() {
			pte, ok := b.Probe(vpn)
			if !ok || pte != latest[vpn] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the entry a Lookup remembers for the next one never answers
// for a page the bank has since dropped, moved or refilled — across
// random Lookups, Inserts, Invalidates and Flushes, Lookup finds exactly
// what Probe (which reads the index alone) finds, and counts it.
func TestBankLookupAgreesWithProbe(t *testing.T) {
	check := func(ops []uint16, replRaw uint8) bool {
		b := NewBank(4, Replacement(replRaw%3), 7)
		var hits, misses uint64
		for i, op := range ops {
			vpn := uint64(op % 8)
			switch op >> 8 % 8 {
			case 0, 1:
				b.Insert(vpn, &vm.PTE{VPN: vpn, PFN: uint64(i + 1)}, int64(i))
			case 2:
				b.Invalidate(vpn)
			case 3:
				if op>>11%8 == 0 {
					b.Flush()
				}
			}
			want, wantOK := b.Probe(vpn)
			got, ok := b.Lookup(vpn, int64(i))
			if ok != wantOK || got != want {
				return false
			}
			if ok {
				hits++
			} else {
				misses++
			}
		}
		return b.Hits == hits && b.Misses == misses
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: an LRU bank of size n fed a cyclic reference pattern of
// n distinct pages never misses after warmup, while a cycle of n+1
// pages always misses (the classic LRU pathologies).
func TestBankLRUCyclicProperty(t *testing.T) {
	const n = 8
	b := NewBank(n, LRU, 1)
	now := int64(0)
	ref := func(vpn uint64) bool {
		now++
		if _, ok := b.Lookup(vpn, now); ok {
			return true
		}
		b.Insert(vpn, nil, now)
		return false
	}
	for round := 0; round < 5; round++ {
		for vpn := uint64(0); vpn < n; vpn++ {
			hit := ref(vpn)
			if round > 0 && !hit {
				t.Fatalf("round %d vpn %d missed in size-%d LRU", round, vpn, n)
			}
		}
	}
	b.Flush()
	for round := 0; round < 5; round++ {
		for vpn := uint64(0); vpn < n+1; vpn++ {
			if ref(vpn) && round > 0 {
				t.Fatalf("cyclic n+1 pattern hit in size-%d LRU", n)
			}
		}
	}
}

func TestSetAssocResidency(t *testing.T) {
	b := NewSetAssocBank(8, 2, LRU, 1) // 4 sets x 2 ways
	// Three VPNs mapping to set 1: 1, 5, 9 (mod 4).
	b.Insert(1, nil, 1)
	b.Insert(5, nil, 2)
	b.Insert(9, nil, 3) // evicts LRU of the set (vpn 1)
	if _, ok := b.Probe(1); ok {
		t.Fatal("2-way set kept three conflicting entries")
	}
	for _, vpn := range []uint64{5, 9} {
		if _, ok := b.Probe(vpn); !ok {
			t.Fatalf("vpn %d lost", vpn)
		}
	}
	// Other sets are untouched by the conflict.
	b.Insert(2, nil, 4)
	if _, ok := b.Probe(2); !ok {
		t.Fatal("unrelated set disturbed")
	}
	if b.ways != 2 {
		t.Fatalf("Ways() = %d", b.ways)
	}
}

func TestSetAssocInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 8 entries / 3 ways")
		}
	}()
	NewSetAssocBank(8, 3, LRU, 1)
}

// Property: a set-associative bank never holds more than `ways` entries
// of any one congruence class, never exceeds capacity, and every
// resident entry remains findable. (No hit-rate ordering is asserted:
// neither organization dominates the other pointwise — a cycle over one
// congruence class favors full associativity, a cycle over size+1
// distinct pages favors the set-associative split.)
func TestSetAssocProperties(t *testing.T) {
	check := func(refs []uint16) bool {
		sa := NewSetAssocBank(16, 4, LRU, 3)
		now := int64(0)
		for _, r := range refs {
			now++
			vpn := uint64(r % 64)
			if _, ok := sa.Lookup(vpn, now); !ok {
				sa.Insert(vpn, nil, now)
			}
			counts := map[uint64]int{}
			for _, v := range sa.VPNs() {
				counts[v%4]++
				if counts[v%4] > 4 {
					return false
				}
				if _, ok := sa.Probe(v); !ok {
					return false
				}
			}
			if len(sa.index) > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
