package tlb

import (
	"fmt"

	"hbat/internal/vm"
)

// Multiported is the brute-force design of Section 3.1 — every port
// reaches every entry of one fully-associative TLB — optionally
// augmented with the piggyback ports of Section 3.4, which let a
// request whose virtual page matches a translation already in progress
// this cycle share that translation instead of consuming a real port.
//
// Table 2 configurations: T4/T2/T1 (4/2/1 ports, no piggybacking) and
// PB2/PB1 (2 ports + 2 piggyback ports, 1 port + 3 piggyback ports).
type Multiported struct {
	name  string
	as    *vm.AddressSpace
	bank  *Bank
	ports int
	piggy int // piggyback ports
	stats Stats

	// per-cycle state
	cycle     int64
	portsUsed int
	piggyUsed int
	inflight  []inflightXlat
}

type inflightXlat struct {
	vpn  uint64
	pte  *vm.PTE // nil when the in-flight translation missed
	miss bool
}

// NewMultiported builds a multi-ported TLB. piggyPorts may be zero.
func NewMultiported(name string, as *vm.AddressSpace, entries, ports, piggyPorts int, repl Replacement, seed uint64) *Multiported {
	if ports < 1 {
		panic(fmt.Sprintf("tlb: %s needs at least one port", name))
	}
	t := &Multiported{
		name:     name,
		bank:     NewBank(entries, repl, seed),
		ports:    ports,
		piggy:    piggyPorts,
		inflight: make([]inflightXlat, 0, ports),
	}
	t.Reset(as, seed)
	return t
}

// Reset implements Resetter.
func (t *Multiported) Reset(as *vm.AddressSpace, seed uint64) {
	t.as = as
	t.bank.Reset(seed)
	t.stats = Stats{}
	t.cycle, t.portsUsed, t.piggyUsed = 0, 0, 0
	t.inflight = t.inflight[:0]
}

// Name implements Device.
func (t *Multiported) Name() string { return t.name }

// Ports returns the real port count.
func (t *Multiported) Ports() int { return t.ports }

// PiggybackPorts returns the piggyback port count.
func (t *Multiported) PiggybackPorts() int { return t.piggy }

// Busy reports, without side effects, whether every real port is
// claimed this cycle, whatever vpn. Then a TLB without piggyback ports
// answers every further Lookup of the cycle NoPort and changes nothing
// but Stats.NoPorts, so a caller may count such requests and Reject
// them in one call instead.
func (t *Multiported) Busy(vpn uint64) bool { return t.portsUsed >= t.ports }

// Reject records n requests turned away for want of a port, exactly as
// n Lookups answered NoPort would.
func (t *Multiported) Reject(n uint64) { t.stats.NoPorts += n }

// BeginCycle implements Device.
func (t *Multiported) BeginCycle(now int64) {
	t.cycle = now
	t.portsUsed = 0
	t.piggyUsed = 0
	t.inflight = t.inflight[:0]
}

// Lookup implements Device.
func (t *Multiported) Lookup(req Request, now int64) Result {
	// Piggyback first: a same-page translation already in progress
	// this cycle can be shared without a real port. The VPN compare
	// runs in parallel with TLB access, so a piggybacked hit has no
	// extra latency (Section 3.4).
	if t.piggy > 0 && t.piggyUsed < t.piggy {
		for _, fl := range t.inflight {
			if fl.vpn != req.VPN {
				continue
			}
			t.piggyUsed++
			t.stats.Piggybacks++
			if fl.miss {
				// The in-flight access missed; the piggybacked request
				// shares the same walk.
				t.stats.Lookups++
				t.stats.Misses++
				return Result{Outcome: Miss}
			}
			t.stats.Lookups++
			t.stats.Hits++
			t.stats.observeExtra(0)
			t.bank.Touch(req.VPN, now)
			if statusWrite(fl.pte, req.Write) {
				t.stats.StatusWrites++
			}
			return Result{Outcome: Hit, PTE: fl.pte}
		}
	}
	if t.portsUsed >= t.ports {
		t.stats.NoPorts++
		return Result{Outcome: NoPort}
	}
	t.portsUsed++
	t.stats.Lookups++
	pte, ok := t.bank.Lookup(req.VPN, now)
	if !ok {
		t.stats.Misses++
		t.inflight = append(t.inflight, inflightXlat{vpn: req.VPN, miss: true})
		return Result{Outcome: Miss}
	}
	t.stats.Hits++
	t.stats.observeExtra(0)
	if statusWrite(pte, req.Write) {
		t.stats.StatusWrites++
	}
	t.inflight = append(t.inflight, inflightXlat{vpn: req.VPN, pte: pte})
	return Result{Outcome: Hit, PTE: pte}
}

// Fill implements Device.
func (t *Multiported) Fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := t.as.Walk(vpn)
	if err != nil {
		return nil, err
	}
	t.bank.Insert(vpn, pte, now)
	t.stats.Fills++
	return pte, nil
}

// Invalidate implements Device.
func (t *Multiported) Invalidate(vpn uint64) {
	t.bank.Invalidate(vpn)
}

// FlushAll implements Device.
func (t *Multiported) FlushAll() {
	t.bank.Flush()
	t.stats.Flushes++
}

// Warm implements Warmer: installs the translation like a Fill without
// touching the statistics.
func (t *Multiported) Warm(vpn uint64, pte *vm.PTE, now int64) {
	t.bank.Insert(vpn, pte, now)
}

// Stats implements Device.
func (t *Multiported) Stats() *Stats { return &t.stats }

// Bank exposes the underlying storage for tests.
func (t *Multiported) Bank() *Bank { return t.bank }
