package tlb

import (
	"fmt"
	"math/bits"

	"hbat/internal/vm"
)

// Select names how a banked TLB maps a virtual page to a bank.
type Select uint8

const (
	// BitSelect is the paper's bit selection: the address bits
	// immediately above the page offset pick the bank (Section 4.1).
	BitSelect Select = iota
	// XORSelect is the paper's XOR folding for X4: the three
	// least-significant groups of log2(banks) address bits above the
	// page offset are XOR'd together (Section 4.1).
	XORSelect
)

// Banked is the one mechanism behind Sections 3.1, 3.2 and 3.4: a set
// of fully-associative banks, each with its own real ports and
// piggyback ports. A multi-ported TLB (Section 3.1) is one bank with k
// ports; an interleaved TLB (Section 3.2) is n banks with one port
// each, where requests to distinct banks proceed in parallel and
// requests colliding on one bank serialize (the later one retries next
// cycle). A piggyback port (Section 3.4) lets a request whose virtual
// page matches a translation its bank already started this cycle share
// that translation instead of claiming a real port.
//
// Table 2 configurations: T4/T2/T1 (1 bank, 4/2/1 ports), PB2/PB1
// (1 bank, 2 ports + 2 piggyback ports, 1 port + 3), I8/I4/X4 (8/4/4
// banks, 1 port each) and I4/PB (4 banks, 1 port + 3 piggyback ports
// each, Section 4.3).
type Banked struct {
	name  string
	as    *vm.AddressSpace
	banks []*Bank
	mask  uint64 // banks-1
	fold  uint   // XORSelect: log2(banks); BitSelect: 0
	ports int    // real ports per bank
	piggy int    // piggyback ports per bank
	stats Stats
	cycle []bankCycle // per bank
}

// bankCycle is one bank's use this cycle: the translations its real
// ports started, one per claimed port, and the piggyback ports taken.
type bankCycle struct {
	inflight  []inflightXlat
	piggyUsed int
}

type inflightXlat struct {
	vpn uint64
	pte *vm.PTE // nil when the translation missed
}

// NewBanked builds a TLB of entries split evenly over banks
// fully-associative banks (a power of two), each with portsPerBank real
// ports and piggyPerBank piggyback ports; sel maps a page to its bank.
func NewBanked(name string, as *vm.AddressSpace, entries, banks, portsPerBank, piggyPerBank int, sel Select, repl Replacement, seed uint64) *Banked {
	if banks < 1 || banks&(banks-1) != 0 {
		panic(fmt.Sprintf("tlb: %s bank count %d must be a power of two", name, banks))
	}
	if entries%banks != 0 {
		panic(fmt.Sprintf("tlb: %s entries %d not divisible by %d banks", name, entries, banks))
	}
	if portsPerBank < 1 {
		panic(fmt.Sprintf("tlb: %s needs at least one port per bank", name))
	}
	t := &Banked{
		name:  name,
		banks: make([]*Bank, banks),
		mask:  uint64(banks - 1),
		ports: portsPerBank,
		piggy: piggyPerBank,
		cycle: make([]bankCycle, banks),
	}
	if sel == XORSelect {
		t.fold = uint(bits.TrailingZeros(uint(banks)))
	}
	inflight := make([]inflightXlat, banks*portsPerBank)
	for i := range t.banks {
		t.banks[i] = NewBank(entries/banks, repl, 0)
		t.cycle[i].inflight = inflight[i*portsPerBank : i*portsPerBank : (i+1)*portsPerBank]
	}
	t.Reset(as, seed)
	return t
}

// Reset implements Resetter: bank i is seeded seed+i*0x9e37.
func (t *Banked) Reset(as *vm.AddressSpace, seed uint64) {
	t.as = as
	for i, b := range t.banks {
		b.Reset(seed + uint64(i)*0x9e37)
	}
	t.stats = Stats{}
	t.BeginCycle(0)
}

// Name implements Device.
func (t *Banked) Name() string { return t.name }

// PiggybackPorts returns the piggyback port count per bank.
func (t *Banked) PiggybackPorts() int { return t.piggy }

// Busy reports, without side effects, whether every real port of vpn's
// bank is claimed this cycle. Then a TLB without piggyback ports
// answers a Lookup of vpn NoPort and changes nothing but Stats.NoPorts,
// so a caller may count such requests and Reject them in one call
// instead.
func (t *Banked) Busy(vpn uint64) bool { return len(t.cycle[t.SelectBank(vpn)].inflight) == t.ports }

// Reject records n requests turned away for want of a port, exactly as
// n Lookups answered NoPort would.
func (t *Banked) Reject(n uint64) { t.stats.NoPorts += n }

// BeginCycle implements Device.
func (t *Banked) BeginCycle(now int64) {
	for i := range t.cycle {
		c := &t.cycle[i]
		c.inflight, c.piggyUsed = c.inflight[:0], 0
	}
}

// Lookup implements Device: a request piggybacks on a same-page
// translation its bank started this cycle while the bank's piggyback
// ports last, else claims one of the bank's real ports, else is
// answered NoPort. The piggyback VPN compare runs in parallel with the
// TLB access, so a piggybacked request sees no extra latency, and one
// that shares a missing translation shares its walk (Section 3.4).
func (t *Banked) Lookup(req Request, now int64) Result {
	b := t.SelectBank(req.VPN)
	c := &t.cycle[b]
	if c.piggyUsed < t.piggy {
		for _, fl := range c.inflight {
			if fl.vpn == req.VPN {
				c.piggyUsed++
				t.stats.Piggybacks++
				return t.answer(fl.pte, req.Write)
			}
		}
	}
	if len(c.inflight) == t.ports {
		t.stats.NoPorts++
		return Result{Outcome: NoPort}
	}
	pte, _ := t.banks[b].Lookup(req.VPN, now)
	c.inflight = append(c.inflight, inflightXlat{vpn: req.VPN, pte: pte})
	return t.answer(pte, req.Write)
}

// answer counts and returns a hit on pte, or a miss if pte is nil.
func (t *Banked) answer(pte *vm.PTE, write bool) Result {
	t.stats.Lookups++
	if pte == nil {
		t.stats.Misses++
		return Result{Outcome: Miss}
	}
	t.stats.Hits++
	if statusWrite(pte, write) {
		t.stats.StatusWrites++
	}
	return Result{Outcome: Hit, PTE: pte}
}

// Fill implements Device. The entry can only live in its selected bank,
// which is what limits an interleaved design's associativity (Section
// 3.2).
func (t *Banked) Fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := t.as.Walk(vpn)
	if err != nil {
		return nil, err
	}
	t.banks[t.SelectBank(vpn)].Insert(vpn, pte, now)
	t.stats.Fills++
	return pte, nil
}

// Invalidate implements Device.
func (t *Banked) Invalidate(vpn uint64) {
	t.banks[t.SelectBank(vpn)].Invalidate(vpn)
}

// FlushAll implements Device.
func (t *Banked) FlushAll() {
	for _, b := range t.banks {
		b.Flush()
	}
}

// Warm implements Warmer: installs the translation into its selected
// bank like a Fill without touching the statistics.
func (t *Banked) Warm(vpn uint64, pte *vm.PTE, now int64) {
	t.banks[t.SelectBank(vpn)].Insert(vpn, pte, now)
}

// Stats implements Device.
func (t *Banked) Stats() *Stats { return &t.stats }

// Bank returns bank i.
func (t *Banked) Bank(i int) *Bank { return t.banks[i] }

// SelectBank returns the bank vpn maps to. Under BitSelect the fold is
// 0 and this is vpn & mask.
func (t *Banked) SelectBank(vpn uint64) int {
	return int((vpn ^ vpn>>t.fold ^ vpn>>(2*t.fold)) & t.mask)
}
