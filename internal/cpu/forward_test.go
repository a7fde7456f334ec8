package cpu

import (
	"math/rand"
	"testing"
)

// forwardOldestFirst is the store-forwarding search as a scan of every
// older known store, oldest first, each overlap overwriting the answer
// of the ones before it: the reference forwardFromStore's youngest-first
// walk, which stops at the first overlap, must agree with.
func (m *Machine) forwardOldestFirst(idx int, e *robEntry) (val uint64, ok, mustWait bool) {
	lo, hi := e.effAddr, e.effAddr+uint64(e.memWidth)
	for j := m.rob.head; j != idx; j = m.rob.inc(j) {
		if !m.rob.sets[setStoreKnown].has(j) {
			continue
		}
		o := m.rob.at(j)
		slo, shi := o.effAddr, o.effAddr+uint64(o.memWidth)
		if hi <= slo || shi <= lo {
			continue
		}
		if slo == lo && o.memWidth == e.memWidth && o.state == sDone {
			val, ok, mustWait = o.storeVal, true, false
		} else {
			val, ok, mustWait = 0, false, true
		}
	}
	if mustWait {
		m.stats.StoreWaits++
	}
	return val, ok, mustWait
}

// TestForwardFromStoreMatchesOldestFirst: on random store queues —
// rings of 64 and 48 slots whose live entries wrap past the end,
// stores with and without a known address, addresses within a few
// bytes of each other, widths 1 to 8, data captured or not — the
// youngest-first walk returns what the oldest-first scan does, for a
// load in every live slot, and counts the same StoreWaits.
func TestForwardFromStoreMatchesOldestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	decided := [3]int{} // forwarded, must wait, neither
	for trial := 0; trial < 2000; trial++ {
		size := []int{64, 48}[trial%2]
		m := &Machine{rob: newROB(size)}
		r := m.rob
		// Start the ring anywhere, so its live entries often wrap.
		for n := rng.Intn(size); n > 0; n-- {
			r.push()
			r.pop()
		}
		for n := 1 + rng.Intn(size); n > 0; n-- {
			idx := r.push()
			e := r.at(idx)
			e.effAddr = 0x1000 + uint64(rng.Intn(24))
			e.memWidth = uint8(1 + rng.Intn(8))
			if rng.Intn(2) == 0 {
				continue // not a store with a known address
			}
			e.isStore, e.addrReady = true, true
			e.storeVal = rng.Uint64()
			if rng.Intn(3) == 0 {
				e.state = sStoreData
			}
			r.sets[setStoreKnown].add(idx)
		}
		for _, idx := range ringOrder(r) {
			load := *r.at(idx)
			load.effAddr = 0x1000 + uint64(rng.Intn(24))
			load.memWidth = []uint8{1, 2, 4, 8}[rng.Intn(4)]
			wantVal, wantOK, wantWait := m.forwardOldestFirst(idx, &load)
			wantWaits := m.stats.StoreWaits
			m.stats.StoreWaits = 0
			val, ok, wait := m.forwardFromStore(idx, &load)
			if val != wantVal || ok != wantOK || wait != wantWait || m.stats.StoreWaits != wantWaits {
				t.Fatalf("size %d head %d count %d, load in slot %d [%#x, +%d): got (%#x, %v, %v) and %d waits, the oldest-first scan (%#x, %v, %v) and %d",
					size, r.head, r.count, idx, load.effAddr, load.memWidth, val, ok, wait, m.stats.StoreWaits, wantVal, wantOK, wantWait, wantWaits)
			}
			m.stats.StoreWaits = 0
			switch {
			case ok:
				decided[0]++
			case wait:
				decided[1]++
			default:
				decided[2]++
			}
		}
	}
	// The random queues reach every outcome.
	for i, n := range decided {
		if n == 0 {
			t.Errorf("outcome %d never reached", i)
		}
	}
}
