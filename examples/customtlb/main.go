// Customtlb: build a translation design the paper did NOT evaluate — a
// victim-TLB organization (a small fully-associative buffer catching
// entries evicted from a direct-mapped-ish interleaved TLB) — and race
// it against the paper's designs. This demonstrates the extension
// point: anything implementing tlb.Device plugs into the simulator.
//
// (This example uses the repository's internal packages directly, which
// is how in-tree experiments are written; the stable external surface
// is the root hbat package.)
//
//	go run ./examples/customtlb
package main

import (
	"fmt"
	"log"

	"hbat/internal/cpu"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/vm"
	"hbat/internal/workload"
)

// victimTLB is a single-ported interleaved TLB backed by a tiny
// fully-associative victim buffer with two ports. Lookups that miss the
// bank but hit the victim buffer are serviced with one extra cycle.
type victimTLB struct {
	main   *tlb.Banked
	victim *tlb.Bank
	as     *vm.AddressSpace
	stats  tlb.Stats

	victimPortsUsed int
}

func newVictimTLB(as *vm.AddressSpace, seed uint64) *victimTLB {
	return &victimTLB{
		main:   tlb.NewBanked("I4v", as, 128, 4, 1, 0, tlb.BitSelect, tlb.Random, seed),
		victim: tlb.NewBank(8, tlb.LRU, seed+99),
		as:     as,
	}
}

func (v *victimTLB) Name() string { return "I4+V8" }

func (v *victimTLB) BeginCycle(now int64) {
	v.main.BeginCycle(now)
	v.victimPortsUsed = 0
}

func (v *victimTLB) Lookup(req tlb.Request, now int64) tlb.Result {
	r := v.main.Lookup(req, now)
	if r.Outcome != tlb.Miss {
		return r
	}
	// Main miss: probe the victim buffer (2 ports/cycle).
	if v.victimPortsUsed < 2 {
		v.victimPortsUsed++
		if pte, ok := v.victim.Lookup(req.VPN, now); ok {
			v.stats.Hits++
			v.stats.Lookups++
			// Swap back into the main structure.
			v.victim.Invalidate(req.VPN)
			return tlb.Result{Outcome: tlb.Hit, Extra: 1, PTE: pte}
		}
	}
	v.stats.Misses++
	return r
}

func (v *victimTLB) Fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := v.as.Walk(vpn)
	if err != nil {
		return nil, err
	}
	// Victimize whatever the bank replaces.
	bank := v.main.Bank(v.main.SelectBank(vpn))
	if evictedVPN, evicted := bankInsert(bank, vpn, pte, now); evicted {
		if old, ok := v.as.Probe(evictedVPN); ok {
			v.victim.Insert(evictedVPN, old, now)
		}
	}
	v.stats.Fills++
	return pte, nil
}

func bankInsert(b *tlb.Bank, vpn uint64, pte *vm.PTE, now int64) (uint64, bool) {
	return b.Insert(vpn, pte, now)
}

func (v *victimTLB) Invalidate(vpn uint64) {
	v.main.Invalidate(vpn)
	v.victim.Invalidate(vpn)
}

func (v *victimTLB) FlushAll() {
	v.main.FlushAll()
	v.victim.Flush()
}

func (v *victimTLB) Stats() *tlb.Stats { return &v.stats }

func main() {
	w, err := workload.ByName("mpeg_play")
	if err != nil {
		log.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("mpeg_play on a custom victim-TLB design vs the paper's designs:")
	run := func(name string, build func(as *vm.AddressSpace) tlb.Device) {
		m, err := cpu.New(p, cpu.DefaultConfig(), build)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.Run(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s IPC %.3f  cycles %d  walks %d\n",
			name, m.Stats().IPC(), m.Stats().Cycles, m.Stats().TLBWalks)
	}

	for _, d := range []string{"T4", "I4", "I4/PB"} {
		spec, err := tlb.LookupSpec(d)
		if err != nil {
			log.Fatal(err)
		}
		run(d, func(as *vm.AddressSpace) tlb.Device { return spec.Build(as, 1) })
	}
	run("I4+V8", func(as *vm.AddressSpace) tlb.Device { return newVictimTLB(as, 1) })
}
