package tlb

import (
	"fmt"

	"hbat/internal/vm"
)

// BankSelect maps a virtual page number to a bank index.
type BankSelect func(vpn uint64) int

// BitSelect returns the paper's bit-selection function: the address
// bits immediately above the page offset pick the bank (Section 4.1).
func BitSelect(banks int) BankSelect {
	mask := uint64(banks - 1)
	return func(vpn uint64) int { return int(vpn & mask) }
}

// XORSelect returns the paper's XOR-folding function for X4: the three
// least-significant groups of two address bits above the page offset
// are XOR'd together (Section 4.1). For other bank counts, the same
// construction folds three groups of log2(banks) bits.
func XORSelect(banks int) BankSelect {
	bits := uint(0)
	for b := banks; b > 1; b >>= 1 {
		bits++
	}
	mask := uint64(banks - 1)
	return func(vpn uint64) int {
		return int((vpn ^ (vpn >> bits) ^ (vpn >> (2 * bits))) & mask)
	}
}

// Interleaved is the design of Section 3.2: an interconnect distributes
// requests over independently ported banks; simultaneous requests to
// distinct banks proceed in parallel, while requests colliding on one
// bank serialize (the later one retries next cycle). With perBankPiggy
// > 0 it becomes the I4/PB design of Section 4.3: requests that meet at
// a busy bank may still complete this cycle when their virtual page
// matches the bank's in-flight translation.
type Interleaved struct {
	name  string
	as    *vm.AddressSpace
	banks []*Bank
	sel   BankSelect
	piggy int // piggyback ports per bank (0 = plain interleaved)
	stats Stats

	// per-cycle state
	busy      []bool
	inflight  []inflightXlat // per bank
	piggyUsed []int
}

// NewInterleaved builds an interleaved TLB with totalEntries split
// evenly over nbanks fully-associative banks.
func NewInterleaved(name string, as *vm.AddressSpace, totalEntries, nbanks int, sel BankSelect, perBankPiggy int, repl Replacement, seed uint64) *Interleaved {
	if nbanks < 1 || nbanks&(nbanks-1) != 0 {
		panic(fmt.Sprintf("tlb: %s bank count %d must be a power of two", name, nbanks))
	}
	if totalEntries%nbanks != 0 {
		panic(fmt.Sprintf("tlb: %s entries %d not divisible by %d banks", name, totalEntries, nbanks))
	}
	t := &Interleaved{
		name:      name,
		banks:     make([]*Bank, nbanks),
		sel:       sel,
		piggy:     perBankPiggy,
		busy:      make([]bool, nbanks),
		inflight:  make([]inflightXlat, nbanks),
		piggyUsed: make([]int, nbanks),
	}
	for i := range t.banks {
		t.banks[i] = NewBank(totalEntries/nbanks, repl, 0)
	}
	t.Reset(as, seed)
	return t
}

// Reset implements Resetter: bank i is seeded seed+i*0x9e37.
func (t *Interleaved) Reset(as *vm.AddressSpace, seed uint64) {
	t.as = as
	for i, b := range t.banks {
		b.Reset(seed + uint64(i)*0x9e37)
	}
	t.stats = Stats{}
	clear(t.busy)
	clear(t.inflight)
	clear(t.piggyUsed)
}

// Name implements Device.
func (t *Interleaved) Name() string { return t.name }

// PiggybackPorts returns the piggyback port count per bank.
func (t *Interleaved) PiggybackPorts() int { return t.piggy }

// Busy reports, without side effects, whether vpn's bank has taken a
// request this cycle. Then a TLB without piggyback ports answers a
// Lookup of vpn NoPort and changes nothing but Stats.NoPorts, so a
// caller may count such requests and Reject them in one call instead.
func (t *Interleaved) Busy(vpn uint64) bool { return t.busy[t.sel(vpn)] }

// Reject records n requests turned away by a busy bank, exactly as n
// Lookups answered NoPort would.
func (t *Interleaved) Reject(n uint64) { t.stats.NoPorts += n }

// BeginCycle implements Device.
func (t *Interleaved) BeginCycle(now int64) {
	for i := range t.busy {
		t.busy[i] = false
		t.piggyUsed[i] = 0
	}
}

// Lookup implements Device.
func (t *Interleaved) Lookup(req Request, now int64) Result {
	b := t.sel(req.VPN)
	if t.busy[b] {
		// Bank conflict. With per-bank piggyback ports a same-page
		// request can share the in-flight translation.
		if t.piggy > 0 && t.piggyUsed[b] < t.piggy && t.inflight[b].vpn == req.VPN {
			t.piggyUsed[b]++
			t.stats.Piggybacks++
			t.stats.Lookups++
			if t.inflight[b].miss {
				t.stats.Misses++
				return Result{Outcome: Miss}
			}
			t.stats.Hits++
			if statusWrite(t.inflight[b].pte, req.Write) {
				t.stats.StatusWrites++
			}
			return Result{Outcome: Hit, PTE: t.inflight[b].pte}
		}
		t.stats.NoPorts++
		return Result{Outcome: NoPort}
	}
	t.busy[b] = true
	t.stats.Lookups++
	pte, ok := t.banks[b].Lookup(req.VPN, now)
	if !ok {
		t.stats.Misses++
		t.inflight[b] = inflightXlat{vpn: req.VPN, miss: true}
		return Result{Outcome: Miss}
	}
	t.stats.Hits++
	if statusWrite(pte, req.Write) {
		t.stats.StatusWrites++
	}
	t.inflight[b] = inflightXlat{vpn: req.VPN, pte: pte}
	return Result{Outcome: Hit, PTE: pte}
}

// Fill implements Device. The entry can only live in its selected bank,
// which is what limits the design's associativity (Section 3.2).
func (t *Interleaved) Fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := t.as.Walk(vpn)
	if err != nil {
		return nil, err
	}
	t.banks[t.sel(vpn)].Insert(vpn, pte, now)
	t.stats.Fills++
	return pte, nil
}

// Invalidate implements Device.
func (t *Interleaved) Invalidate(vpn uint64) {
	t.banks[t.sel(vpn)].Invalidate(vpn)
}

// FlushAll implements Device.
func (t *Interleaved) FlushAll() {
	for _, b := range t.banks {
		b.Flush()
	}
}

// Warm implements Warmer: installs the translation into its selected
// bank like a Fill without touching the statistics.
func (t *Interleaved) Warm(vpn uint64, pte *vm.PTE, now int64) {
	t.banks[t.sel(vpn)].Insert(vpn, pte, now)
}

// Stats implements Device.
func (t *Interleaved) Stats() *Stats { return &t.stats }

// Bank returns bank i for tests.
func (t *Interleaved) Bank(i int) *Bank { return t.banks[i] }

// SelectBank exposes the bank-selection function for tests.
func (t *Interleaved) SelectBank(vpn uint64) int { return t.sel(vpn) }
