package cpu

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hbat/internal/pipetrace"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

func (s slotSet) has(i int) bool { return s&(1<<(i&63)) != 0 }

// checkScheduler rebuilds the scheduler state — every set and wake
// wheel bucket, each un-issued entry's pending-source count and each
// destination's consumer set — from a plain full scan of the ring, and
// compares it with the incrementally maintained one. Run between
// cycles, after tick: m.cycle's stages have all run.
func (m *Machine) checkScheduler() error {
	r := m.rob
	var want [numSets]slotSet
	var wantWheel [len(r.wheel)]slotSet
	wantCons := make([]slotSet, len(r.cons))
	var live slotSet
	// parked expects slot idx in wheel's bucket for cycle due and
	// nowhere else. Nothing parks for the cycle under way or an earlier
	// one, and an entry not marked far is due before its bucket next
	// comes round.
	parked := func(wheel, idx int, due int64) error {
		due = max(due, m.cycle+1)
		wantWheel[int(due&(wheelSpan-1))*numWheels+wheel].add(idx)
		if due-m.cycle >= wheelSpan && !r.far.has(idx) {
			return fmt.Errorf("slot %d is parked for cycle %d, %d cycles ahead, and not marked far", idx, due, due-m.cycle)
		}
		return nil
	}
	for _, idx := range ringOrder(r) {
		live.add(idx)
		e := r.at(idx)
		var err error
		switch e.state {
		case sWaiting:
			want[setUnissued].add(idx)
		case sReady:
			want[setUnissued].add(idx)
			if e.readyAt <= m.cycle {
				want[setReady].add(idx)
			} else {
				err = parked(wheelReady, idx, e.readyAt)
			}
		case sExecuting:
			err = parked(wheelDone, idx, e.doneAt)
		case sMemReq:
			if e.memReqAt <= m.cycle {
				want[setMem].add(idx)
			} else {
				err = parked(wheelMem, idx, e.memReqAt)
			}
		case sMemWalk:
			// Waits to become the head, or for a walk of its page.
		case sStoreData:
			// Its data value not yet produced, a store waits for the
			// delivery; one that has arrived was captured on arrival.
			if e.srcs[0].producer < 0 {
				err = parked(wheelMem, idx, e.dataAt)
			}
		}
		if err != nil {
			return err
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
			wantCons[p*2+int(op.slot)].add(idx)
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
	names := [numSets]string{"unissued", "ready", "due", "mem", "store-unknown", "store-known"}
	for s := range want {
		if r.sets[s] != want[s] {
			return fmt.Errorf("%s set = %#x, a full scan gives %#x", names[s], r.sets[s], want[s])
		}
	}
	// Every parked entry in its due cycle's bucket and no other, no
	// bucket bit on a slot that is dead or not parked, and nothing far
	// that is not parked.
	var parkedSlots slotSet
	for i := range wantWheel {
		if r.wheel[i] != wantWheel[i] {
			return fmt.Errorf("wheel %d bucket %d = %#x, a full scan gives %#x",
				i%numWheels, i/numWheels, r.wheel[i], wantWheel[i])
		}
		parkedSlots |= r.wheel[i]
	}
	if stray := r.far &^ parkedSlots; stray != 0 {
		return fmt.Errorf("far marks %#x, which no bucket holds", stray)
	}
	for i := range wantCons {
		if r.cons[i] != wantCons[i] {
			return fmt.Errorf("slot %d dest %d consumers = %#x, a full scan gives %#x",
				i/2, i%2, r.cons[i], wantCons[i])
		}
	}
	return nil
}

// runChecked is Run with the scheduler state checked after every cycle.
func runChecked(m *Machine) error {
	if err := m.FastForward(); err != nil {
		return err
	}
	for !m.halted && m.err == nil {
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
// by another road: in-order issue, the virtual-address cache, periodic
// TLB flushes, an attached tracer, and latencies longer than the wake
// wheel, or zero.
func TestSchedulerStateConsistent(t *testing.T) {
	type variant struct {
		name, design string
		tweak        func(*Config)
		traced       bool
	}
	var variants []variant
	for _, d := range tlb.DesignOrder {
		variants = append(variants, variant{name: d, design: d, tweak: func(*Config) {}})
	}
	variants = append(variants,
		variant{name: "inorder", design: "T2", tweak: func(c *Config) { c.InOrder = true }},
		variant{name: "vcache", design: "T1", tweak: func(c *Config) { c.VirtualCache = true }},
		variant{name: "flush", design: "M4", tweak: func(c *Config) { c.FlushTLBEvery = 2000 }},
		// A tracer wants every completion and every rejected request
		// as an event on its cycle: computations are parked for
		// complete and a port-less TLB is still asked.
		variant{name: "traced", design: "T1", tweak: func(*Config) {}, traced: true},
		// Operands, store data and completions due beyond the wake
		// wheel's reach.
		variant{name: "longlat", design: "T2", tweak: func(c *Config) {
			c.IntMultLat, c.FPAddLat, c.FPMultLat = 25*c.IntMultLat, 25*c.FPAddLat, 25*c.FPMultLat
			c.DCache.MissLatency *= 25
			c.TLBMissLatency *= 10
		}},
		// A ring that wraps inside its word, checked against the
		// emulator.
		variant{name: "rob48", design: "T2", tweak: func(c *Config) { c.ROBSize, c.Lockstep = 48, true }},
		// Nothing to wait for: results available the cycle they issue.
		variant{name: "zerolat", design: "T2", tweak: func(c *Config) { c.IntALULat = 0 }},
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
				if v.traced {
					m.SetTracer(pipetrace.New(pipetrace.Config{Cap: 1 << 10}))
				}
				if err := runChecked(m); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCountedRejectsMatchTheWalk: on the multi-ported and interleaved
// designs without piggyback ports the memory stage does not present a
// request whose port or bank is already claimed this cycle, and charges
// those in one sum. Presenting every request (counted set to nil) must
// count the same: the core's retries, the device's rejections, the
// replay counter and the per-cycle queue-depth histogram. So must a
// traced run, which takes the shipped path and emits each NoPort where
// it is counted. Every Table 2 design runs four workloads with a
// physical and a virtual cache.
func TestCountedRejectsMatchTheWalk(t *testing.T) {
	countedDesigns := map[string]bool{"T1": true, "T2": true, "T4": true, "I8": true, "I4": true, "X4": true}
	for _, wl := range []string{"compress", "gcc", "tomcatv", "xlisp"} {
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			w, err := workload.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Build(prog.Budget32, workload.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			for _, vc := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.VirtualCache = vc
				for _, d := range tlb.DesignOrder {
					machine := func() *Machine {
						m, err := NewWithDesign(p, cfg, d)
						if err != nil {
							t.Fatal(err)
						}
						return m
					}
					counted := machine()
					if want := countedDesigns[d] && !vc; (counted.counted != nil) != want {
						t.Fatalf("%s vcache=%v: requests counted = %v, want %v", d, vc, counted.counted != nil, want)
					}
					traced := machine()
					traced.SetTracer(pipetrace.New(pipetrace.Config{Cap: 1 << 10}))
					others := map[string]*Machine{"traced": traced}
					if counted.counted != nil {
						walked := machine()
						walked.counted = nil
						others["walked"] = walked
					}
					if err := counted.Run(); err != nil {
						t.Fatal(err)
					}
					if wl == "compress" && counted.counted != nil && d != "T4" && counted.stats.TLBRetries == 0 {
						t.Errorf("%s: no request was ever rejected", d)
					}
					for name, m := range others {
						if err := m.Run(); err != nil {
							t.Fatal(err)
						}
						if m.stats != counted.stats {
							t.Errorf("%s vcache=%v: cpu stats differ:\ncounted %+v\n%-7s %+v", d, vc, counted.stats, name, m.stats)
						}
						if *m.DTLB.Stats() != *counted.DTLB.Stats() {
							t.Errorf("%s vcache=%v: tlb stats differ:\ncounted %+v\n%-7s %+v", d, vc, *counted.DTLB.Stats(), name, *m.DTLB.Stats())
						}
						if c, o := counted.Metrics(), m.Metrics(); !reflect.DeepEqual(c, o) {
							t.Errorf("%s vcache=%v: metrics differ:\ncounted %+v\n%-7s %+v", d, vc, c, name, o)
						}
					}
				}
			}
		})
	}
}

// TestROBSetOrderProperty: across random sequences of push, pop,
// squash, set changes, parks (up to three turns of the wheel ahead) and
// cycles going by, on rings of one slot, a few, a partial word and a
// whole word, iterating a set with first/after visits exactly the
// members a plain model of the scheduler gives it, in the ring's
// oldest-first order; for a random live slot, older, anyOlder and
// iterating with before agree with the model's ring order too; every
// parked entry wakes into its wheel's set on its due cycle and not
// before; and nothing outside the ring is left in any set, bucket or
// the far mask.
func TestROBSetOrderProperty(t *testing.T) {
	// where is the model: which set (0..numSets-1) or wheel
	// (numSets+wheel) a live slot is in, or -1; store sets ride along
	// independently, as in the machine.
	const nowhere = -1
	for _, size := range []int{1, 4, 48, 64} {
		size := size
		check := func(seed int64, ops []uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			r := newROB(size)
			where := make([]int, size)
			due := make([]int64, size)
			store := make([]int, size) // setStoreUnknown, setStoreKnown or nowhere
			now := int64(rng.Intn(3 * wheelSpan))
			stageSets := []int{setUnissued, setReady, setDue, setMem}
			// place puts a live slot that is nowhere into a random
			// stage set or parks it in a random wheel.
			place := func(idx int) {
				if rng.Intn(2) == 0 {
					where[idx] = stageSets[rng.Intn(len(stageSets))]
					r.sets[where[idx]].add(idx)
					return
				}
				wheel, e := rng.Intn(numWheels), r.at(idx)
				due[idx] = now + 1 + int64(rng.Intn(3*wheelSpan))
				switch {
				case wheel == wheelReady:
					e.state, e.readyAt = sReady, due[idx]
				case wheel == wheelDone:
					e.state, e.doneAt = sExecuting, due[idx]
				case rng.Intn(2) == 0:
					e.state, e.dataAt = sStoreData, due[idx]
				default:
					e.state, e.memReqAt = sMemReq, due[idx]
				}
				where[idx] = numSets + wheel
				r.park(wheel, idx, due[idx], now)
			}
			// unplace takes a slot out of the stage set it is in, as
			// the stage visiting it would; a parked slot stays parked.
			unplace := func(idx int) bool {
				if where[idx] >= numSets {
					return false
				}
				if where[idx] != nowhere {
					r.sets[where[idx]].remove(idx)
					where[idx] = nowhere
				}
				return true
			}
			for _, op := range ops {
				switch op % 6 {
				case 0, 1:
					if !r.full() {
						idx := r.push()
						where[idx], store[idx] = nowhere, nowhere
						place(idx)
						if rng.Intn(3) == 0 {
							store[idx] = setStoreUnknown + rng.Intn(2)
							r.sets[store[idx]].add(idx)
						}
					}
				case 2:
					// pop expects what commit hands it: a head in no
					// stage set or bucket whose store address, if any,
					// is known.
					if r.count != 0 && unplace(r.head) {
						r.sets[setStoreUnknown].remove(r.head)
						r.pop()
					}
				case 3:
					if r.count != 0 {
						order := ringOrder(r)
						r.squashAfter(order[rng.Intn(len(order))])
					}
				case 4:
					if r.count > 0 {
						order := ringOrder(r)
						if idx := order[rng.Intn(len(order))]; unplace(idx) {
							place(idx)
						}
					}
				case 5:
					// Cycles go by; each stage wakes what is due.
					for n := 1 + rng.Intn(wheelSpan); n > 0; n-- {
						now++
						r.wake(now)
						for _, idx := range ringOrder(r) {
							if where[idx] >= numSets && due[idx] == now {
								where[idx] = wheelSet[where[idx]-numSets]
							}
						}
					}
				}
				order := ringOrder(r)
				held := 0 // bits the model expects over all sets and buckets
				for set := 0; set < numSets; set++ {
					var want, got []int
					for _, idx := range order {
						if where[idx] == set || store[idx] == set {
							want = append(want, idx)
						}
					}
					for idx := r.first(set); idx >= 0; idx = r.after(set, idx) {
						got = append(got, idx)
					}
					if !slices.Equal(got, want) {
						t.Logf("size %d set %d head %d count %d cycle %d: iterated %v, the model gives %v", size, set, r.head, r.count, now, got, want)
						return false
					}
					held += len(want)
				}
				for _, idx := range order {
					if where[idx] < numSets {
						continue
					}
					held++
					if !r.bucket(where[idx]-numSets, due[idx]).has(idx) {
						t.Logf("size %d: slot %d, parked in wheel %d for cycle %d, is not in that bucket at cycle %d", size, idx, where[idx]-numSets, due[idx], now)
						return false
					}
					if due[idx]-now >= wheelSpan && !r.far.has(idx) {
						t.Logf("size %d: slot %d is due %d cycles ahead and not marked far", size, idx, due[idx]-now)
						return false
					}
				}
				// Nothing but what the model holds is anywhere: not a
				// dead slot, not a slot twice.
				n := 0
				for _, word := range r.sets {
					n += bits.OnesCount64(uint64(word))
				}
				for _, word := range r.wheel {
					n += bits.OnesCount64(uint64(word))
				}
				if n != held {
					t.Logf("size %d cycle %d: sets and buckets hold %d bits, the model %d", size, now, n, held)
					return false
				}
				if r.far&^liveMask(r) != 0 {
					t.Logf("size %d: far marks a dead slot", size)
					return false
				}
				if len(order) > 0 && !agesAgree(t, r, order, order[rng.Intn(len(order))]) {
					t.Logf("size %d head %d count %d", size, r.head, r.count)
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

// agesAgree checks older, anyOlder and iteration with before at live
// slot idx against the ring order: the slots listed before idx are the
// older ones, and before visits each set's members among them youngest
// first.
func agesAgree(t *testing.T, r *rob, order []int, idx int) bool {
	older := order[:slices.Index(order, idx)]
	var want slotSet
	for _, j := range older {
		want.add(j)
	}
	if got := r.older(idx) & liveMask(r); got != want {
		t.Logf("older(%d) holds live slots %#x, the ring order gives %#x", idx, got, want)
		return false
	}
	for set := 0; set < numSets; set++ {
		var wantBefore, gotBefore []int
		for i := len(older) - 1; i >= 0; i-- {
			if r.sets[set].has(older[i]) {
				wantBefore = append(wantBefore, older[i])
			}
		}
		for j := r.before(r.sets[set], idx); j >= 0; j = r.before(r.sets[set], j) {
			gotBefore = append(gotBefore, j)
		}
		if !slices.Equal(gotBefore, wantBefore) {
			t.Logf("set %d before slot %d: iterated %v, the ring order gives %v", set, idx, gotBefore, wantBefore)
			return false
		}
		if got := r.anyOlder(set, idx); got != (len(wantBefore) > 0) {
			t.Logf("set %d: anyOlder(%d) = %v, the ring order gives %v", set, idx, got, wantBefore)
			return false
		}
	}
	return true
}

// liveMask returns the set of live slots.
func liveMask(r *rob) slotSet {
	var live slotSet
	for _, idx := range ringOrder(r) {
		live.add(idx)
	}
	return live
}
