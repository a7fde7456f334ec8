package cpu

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

func (s slotSet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// checkScheduler rebuilds the scheduler state — every set, each
// un-issued entry's pending-source count and each destination's
// consumer set — from a plain full scan of the ring and compares it
// with the incrementally maintained one.
func (m *Machine) checkScheduler() error {
	r := m.rob
	words := len(r.kept)
	want := make([]slotSet, numSets)
	for i := range want {
		want[i] = make(slotSet, words)
	}
	wantCons := make([]uint64, len(r.cons))
	live := make(slotSet, words)
	for _, idx := range ringOrder(r) {
		live.add(idx)
		e := r.at(idx)
		if s := stateSet[e.state]; s != setNone {
			want[s].add(idx)
		}
		if e.isStore {
			if e.addrReady {
				want[setStoreKnown].add(idx)
			} else {
				want[setStoreUnknown].add(idx)
			}
		}
		pending := uint8(0)
		for k := 0; k < e.nsrc; k++ {
			op := e.srcs[k]
			if op.producer < 0 {
				continue
			}
			p := int(op.producer)
			if !live.has(p) || p == idx {
				return fmt.Errorf("slot %d operand %d is linked to slot %d, which is not an older live entry", idx, k, p)
			}
			if at := r.at(p).dests[op.slot].readyAt; at != math.MaxInt64 {
				return fmt.Errorf("slot %d operand %d is still linked to slot %d dest %d, fixed for cycle %d", idx, k, p, op.slot, at)
			}
			slotSet(wantCons[(p*2+int(op.slot))*words:]).add(idx)
			if !e.isData(k) {
				pending++
			}
		}
		if e.pending != pending {
			return fmt.Errorf("slot %d pending = %d, a full scan gives %d", idx, e.pending, pending)
		}
		if (e.state == sWaiting) != (pending > 0) && e.state <= sReady {
			return fmt.Errorf("slot %d is in state %d with %d pending sources", idx, e.state, pending)
		}
	}
	names := [numSets]string{"waiting", "ready", "executing", "mem", "store-unknown", "store-known"}
	for s := 0; s < numSets; s++ {
		for w := 0; w < words; w++ {
			if r.sets[s][w] != want[s][w] {
				return fmt.Errorf("%s set word %d = %#x, a full scan gives %#x", names[s], w, r.sets[s][w], want[s][w])
			}
		}
	}
	for i := range wantCons {
		if r.cons[i] != wantCons[i] {
			return fmt.Errorf("slot %d dest %d consumers word %d = %#x, a full scan gives %#x",
				i/words/2, i/words%2, i%words, r.cons[i], wantCons[i])
		}
	}
	return nil
}

// runChecked is Run with the scheduler state checked after every cycle.
func runChecked(m *Machine) error {
	if err := m.FastForward(); err != nil {
		return err
	}
	for !m.halted && m.err == nil && (m.cfg.MaxCycles == 0 || m.cycle < m.cfg.MaxCycles) {
		m.tick()
		if err := m.checkScheduler(); err != nil {
			return fmt.Errorf("cycle %d: %w", m.cycle, err)
		}
	}
	// No cycle is left to simulate: Run finishes the statistics and
	// the lockstep cross-checks.
	return m.Run()
}

// TestSchedulerStateConsistent validates the scheduler state against a
// full scan after every cycle, on a branchy and a memory-heavy workload,
// over all 13 designs and the configurations that reach the scheduler
// by another road: in-order issue, the virtual-address cache, the
// micro-ITLB refilling through the data TLB, and periodic TLB flushes.
func TestSchedulerStateConsistent(t *testing.T) {
	type variant struct {
		name, design string
		tweak        func(*Config)
	}
	var variants []variant
	for _, d := range tlb.DesignOrder {
		variants = append(variants, variant{d, d, func(*Config) {}})
	}
	variants = append(variants,
		variant{"inorder", "T2", func(c *Config) { c.InOrder = true }},
		variant{"vcache", "T1", func(c *Config) { c.VirtualCache = true }},
		variant{"itlb-unified", "T2", func(c *Config) { c.ModelITLB, c.UnifiedTLB = true, true }},
		variant{"flush", "M4", func(c *Config) { c.FlushTLBEvery = 2000 }},
	)
	for _, name := range []string{"gcc", "compress"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Build(prog.Budget32, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			v := v
			t.Run(name+"/"+v.name, func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				v.tweak(&cfg)
				m, err := NewWithDesign(p, cfg, v.design)
				if err != nil {
					t.Fatal(err)
				}
				if err := runChecked(m); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestROBSetOrderProperty: across random push/pop/squash sequences and
// state changes, on rings of one word, a partial word and more than one
// word, iterating a set with first/after visits exactly its live
// members in the ring's oldest-first order.
func TestROBSetOrderProperty(t *testing.T) {
	for _, size := range []int{1, 4, 48, 64, 96} {
		size := size
		check := func(seed int64, ops []uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			r := newROB(size)
			for _, op := range ops {
				switch op % 4 {
				case 0, 1:
					if !r.full() {
						idx := r.push()
						r.setState(idx, uint8(rng.Intn(int(numStates))))
						if rng.Intn(3) == 0 {
							r.sets[setStoreUnknown+rng.Intn(2)].add(idx)
						}
					}
				case 2:
					if !r.empty() {
						// pop expects what commit hands it: an sDone head
						// whose store address, if any, is known.
						r.setState(r.head, sDone)
						r.sets[setStoreUnknown].remove(r.head)
						r.pop()
					}
				case 3:
					if !r.empty() {
						order := ringOrder(r)
						r.squashAfter(order[rng.Intn(len(order))])
					}
				}
				if r.count > 0 {
					order := ringOrder(r)
					r.setState(order[rng.Intn(len(order))], uint8(rng.Intn(int(numStates))))
				}
				order := ringOrder(r)
				for set := 0; set < numSets; set++ {
					var want, got []int
					for _, idx := range order {
						if r.sets[set].has(idx) {
							want = append(want, idx)
						}
					}
					for idx := r.first(set); idx >= 0; idx = r.after(set, idx) {
						got = append(got, idx)
					}
					if !slices.Equal(got, want) {
						t.Logf("size %d set %d head %d count %d: iterated %v, ring order gives %v", size, set, r.head, r.count, got, want)
						return false
					}
					// Nothing outside the ring is left in the set.
					n := 0
					for _, word := range r.sets[set] {
						n += bits.OnesCount64(word)
					}
					if n != len(want) {
						t.Logf("size %d set %d holds %d slots, %d of them live", size, set, n, len(want))
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}
