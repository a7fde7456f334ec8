package tlb

import (
	"fmt"
	"testing"

	"hbat/internal/vm"
)

// refGeom is one row of Table 2 read as the paper states it: how many
// banks the 128 entries are split over, the real and piggyback ports
// each bank has, and whether the bank index is the XOR fold of the
// page number rather than its low bits.
type refGeom struct {
	banks, ports, piggy int
	xor                 bool
}

// refTable2 lists the designs of Sections 3.1 (T), 3.2 (I, X) and 3.4
// and 4.3 (PB, I4/PB) in Table 2's order.
var refTable2 = []struct {
	m string
	g refGeom
}{
	{"T4", refGeom{banks: 1, ports: 4}},
	{"T2", refGeom{banks: 1, ports: 2}},
	{"T1", refGeom{banks: 1, ports: 1}},
	{"I8", refGeom{banks: 8, ports: 1}},
	{"I4", refGeom{banks: 4, ports: 1}},
	{"X4", refGeom{banks: 4, ports: 1, xor: true}},
	{"PB2", refGeom{banks: 1, ports: 2, piggy: 2}},
	{"PB1", refGeom{banks: 1, ports: 1, piggy: 3}},
	{"I4/PB", refGeom{banks: 4, ports: 1, piggy: 3}},
}

// refBanked is the plain model the banked designs are checked against.
// Each cycle it keeps one list of the translations real ports started,
// in age order, and answers a request by three rules:
//   - piggyback (Section 3.4; per bank in I4/PB, Section 4.3): a page
//     already being translated this cycle in the request's bank is
//     shared while that bank has a piggyback port left, with no extra
//     latency; a shared miss is a miss, sharing its walk;
//   - otherwise the request needs one of its bank's real ports: k for
//     the one bank of a multi-ported TLB (Section 3.1), one per bank of
//     an interleaved TLB (Section 3.2);
//   - otherwise it is turned away (NoPort) and retries next cycle.
//
// A hit on a page not yet referenced, or a store to a page not yet
// dirty, writes the status through (Section 4.1). Fills, Warm and
// Invalidate reach only the page's own bank. Entries live in Banks
// seeded as Reset documents: bank i gets seed+i*0x9e37.
type refBanked struct {
	g       refGeom
	as      *vm.AddressSpace
	banks   []*Bank
	stats   Stats
	status  map[*vm.PTE]refStatus
	started []refStart
	shared  map[int]int // piggyback ports used this cycle, by bank
}

type refStatus struct{ ref, dirty bool }

type refStart struct {
	bank int
	vpn  uint64
	pte  *vm.PTE // nil: the lookup missed
}

func newRefBanked(g refGeom, as *vm.AddressSpace, seed uint64) *refBanked {
	r := &refBanked{g: g, as: as, status: map[*vm.PTE]refStatus{}, shared: map[int]int{}}
	for i := 0; i < g.banks; i++ {
		r.banks = append(r.banks, NewBank(128/g.banks, Random, seed+uint64(i)*0x9e37))
	}
	return r
}

// bankOf is Section 4.1's bank selection: the log2(banks) bits above
// the page offset, or for X4 those bits XOR'd with the next two groups.
func (r *refBanked) bankOf(vpn uint64) int {
	w := 0
	for 1<<w < r.g.banks {
		w++
	}
	low := func(x uint64) int { return int(x % uint64(r.g.banks)) }
	if !r.g.xor {
		return low(vpn)
	}
	return low(vpn) ^ low(vpn>>w) ^ low(vpn>>(2*w))
}

func (r *refBanked) beginCycle() {
	r.started = nil
	clear(r.shared)
}

func (r *refBanked) lookup(req Request, now int64) Result {
	b := r.bankOf(req.VPN)
	if r.shared[b] < r.g.piggy {
		for _, s := range r.started {
			if s.bank == b && s.vpn == req.VPN {
				r.shared[b]++
				r.stats.Piggybacks++
				return r.serve(s.pte, req.Write)
			}
		}
	}
	used := 0
	for _, s := range r.started {
		if s.bank == b {
			used++
		}
	}
	if used >= r.g.ports {
		r.stats.NoPorts++
		return Result{Outcome: NoPort}
	}
	pte, _ := r.banks[b].Lookup(req.VPN, now)
	r.started = append(r.started, refStart{bank: b, vpn: req.VPN, pte: pte})
	return r.serve(pte, req.Write)
}

func (r *refBanked) serve(pte *vm.PTE, write bool) Result {
	r.stats.Lookups++
	if pte == nil {
		r.stats.Misses++
		return Result{Outcome: Miss}
	}
	r.stats.Hits++
	st := r.status[pte]
	if !st.ref || (write && !st.dirty) {
		r.stats.StatusWrites++
	}
	r.status[pte] = refStatus{ref: true, dirty: st.dirty || write}
	return Result{Outcome: Hit, PTE: pte}
}

func (r *refBanked) fill(vpn uint64, now int64) (*vm.PTE, error) {
	pte, err := r.as.Walk(vpn)
	if err != nil {
		return nil, err
	}
	r.banks[r.bankOf(vpn)].Insert(vpn, pte, now)
	r.stats.Fills++
	return pte, nil
}

// refShape is one randomized request stream: cycles of at most batch
// requests over pages pages, the last of which is unmapped.
type refShape struct {
	seed                 uint64
	batch, pages, cycles int
}

// refRun drives d and a new reference over as with one stream and
// fails at the first request, fill or counter on which they differ. It
// returns a transcript of d's answers, PTEs as (VPN, PFN).
func refRun(t testing.TB, d *Banked, g refGeom, as *vm.AddressSpace, seed uint64, s refShape) []string {
	t.Helper()
	ref := newRefBanked(g, as, seed)
	x := s.seed | 1
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	var out []string
	note := func(r Result) {
		if r.PTE == nil {
			out = append(out, fmt.Sprint(r.Outcome, r.Extra))
			return
		}
		out = append(out, fmt.Sprint(r.Outcome, r.Extra, r.PTE.VPN, r.PTE.PFN))
	}
	recent := uint64(0)
	for now := int64(1); now <= int64(s.cycles); now++ {
		d.BeginCycle(now)
		ref.beginCycle()
		var missed []uint64
		for i := 1 + next(s.batch); i > 0; i-- {
			vpn := uint64(next(s.pages))
			if next(2) == 0 {
				vpn = recent // repeated pages make piggybacks and conflicts
			}
			recent = vpn
			req := Request{VPN: vpn, Write: next(4) == 0}
			got, want := d.Lookup(req, now), ref.lookup(req, now)
			if got != want {
				t.Fatalf("cycle %d: Lookup(%+v) = %+v, reference %+v", now, req, got, want)
			}
			if got.PTE != nil {
				if st := ref.status[got.PTE]; got.PTE.Ref != st.ref || got.PTE.Dirty != st.dirty {
					t.Fatalf("cycle %d: page %d status ref=%v dirty=%v, reference %+v",
						now, vpn, got.PTE.Ref, got.PTE.Dirty, st)
				}
			}
			if got.Outcome == Miss {
				missed = append(missed, vpn)
			}
			note(got)
		}
		for _, vpn := range missed {
			if next(4) == 0 {
				continue // the walk has not finished yet
			}
			got, gerr := d.Fill(vpn, now)
			want, werr := ref.fill(vpn, now)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("cycle %d: Fill(%d) = %v, %v; reference %v, %v", now, vpn, got, gerr, want, werr)
			}
		}
		switch next(16) {
		case 0:
			vpn := uint64(next(s.pages))
			d.Invalidate(vpn)
			ref.banks[ref.bankOf(vpn)].Invalidate(vpn)
		case 1:
			vpn := uint64(next(s.pages - 1))
			pte, err := as.Walk(vpn)
			if err != nil {
				t.Fatal(err)
			}
			d.Warm(vpn, pte, now)
			ref.banks[ref.bankOf(vpn)].Insert(vpn, pte, now)
		case 2:
			if next(4) == 0 {
				d.FlushAll()
				for _, b := range ref.banks {
					b.Flush()
				}
			}
		}
		if *d.Stats() != ref.stats {
			t.Fatalf("cycle %d: stats %+v, reference %+v", now, *d.Stats(), ref.stats)
		}
	}
	for i, b := range ref.banks {
		if got, want := len(d.Bank(i).VPNs()), len(b.VPNs()); got != want {
			t.Fatalf("bank %d holds %d pages, reference %d", i, got, want)
		}
		for _, vpn := range b.VPNs() {
			if _, ok := d.Bank(i).Probe(vpn); !ok {
				t.Fatalf("bank %d lacks page %d the reference holds", i, vpn)
			}
		}
	}
	return out
}

// refAS maps pages 0..pages-2; page pages-1 is unmapped, so its Fill
// fails.
func refAS(pages int) *vm.AddressSpace {
	as := vm.NewAddressSpace(4096)
	as.AddRegion(vm.Region{Name: "data", Base: 0, Size: uint64(pages-1) * 4096, Perm: vm.PermRW})
	return as
}

// checkBanked builds design row's Table 2 device, checks it against the
// reference, then checks that the device reset after a run with another
// seed answers as a new one does, both against the reference and
// answer for answer.
func checkBanked(t testing.TB, row int, s refShape) {
	m, g := refTable2[row].m, refTable2[row].g
	spec, err := LookupSpec(m)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	as := refAS(s.pages)
	fresh := spec.Build(as, seed).(*Banked)
	want := refRun(t, fresh, g, as, seed, s)

	as1 := refAS(s.pages)
	used := spec.Build(as1, seed+1).(*Banked)
	warmup := s
	warmup.seed, warmup.cycles = s.seed+1, s.cycles/2
	refRun(t, used, g, as1, seed+1, warmup)
	as2 := refAS(s.pages)
	used.Reset(as2, seed)
	got := refRun(t, used, g, as2, seed, s)
	if len(got) != len(want) {
		t.Fatalf("%s: reset device answered %d requests, new device %d", m, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: request %d: reset device %s, new device %s", m, i, got[i], want[i])
		}
	}
}

// TestBankedMatchesReference drives every banked Table 2 design and the
// reference model with the same seeded random per-cycle batches.
func TestBankedMatchesReference(t *testing.T) {
	shapes := []refShape{
		{batch: 4, pages: 8, cycles: 2000},   // few pages: piggybacks and conflicts
		{batch: 8, pages: 40, cycles: 2000},  // wide batches, fits in 128 entries
		{batch: 6, pages: 300, cycles: 3000}, // more pages than entries: replacement
	}
	for row := range refTable2 {
		t.Run(refTable2[row].m, func(t *testing.T) {
			for i, s := range shapes {
				for seed := uint64(1); seed <= 3; seed++ {
					s.seed = seed*1000 + uint64(i)
					checkBanked(t, row, s)
				}
			}
		})
	}
}

// FuzzBanked checks one banked design against the reference for a
// fuzzed stream: design (an index into Table 2's banked rows), stream
// seed, largest batch and page count.
func FuzzBanked(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(4), uint8(8))
	f.Add(uint8(5), uint64(2), uint8(8), uint8(40))
	f.Add(uint8(7), uint64(3), uint8(3), uint8(2))
	f.Add(uint8(8), uint64(4), uint8(6), uint8(200))
	f.Fuzz(func(t *testing.T, design uint8, seed uint64, batch, pages uint8) {
		checkBanked(t, int(design)%len(refTable2), refShape{
			seed:   seed,
			batch:  1 + int(batch)%12,
			pages:  2 + int(pages),
			cycles: 300,
		})
	})
}
