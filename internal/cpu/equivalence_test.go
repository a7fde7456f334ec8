package cpu

import (
	"hash/fnv"
	"testing"

	"hbat/internal/isa"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// archState is the architected outcome of a run: everything a
// translation design is forbidden to change.
type archState struct {
	committed uint64
	loads     uint64
	stores    uint64
	regs      [isa.NumRegs]uint64
	dataHash  uint64
}

// dataDigest hashes the workload's data region through virtual
// addresses. Virtual (not physical) is essential: wrong-path fetches
// map code pages in a timing-dependent order, so physical frame
// numbers legitimately differ between designs while the virtual image
// must not.
func dataDigest(t *testing.T, m *Machine, p *prog.Program) uint64 {
	t.Helper()
	h := fnv.New64a()
	buf := make([]byte, 4096)
	for _, r := range p.Regions {
		if r.Name != "data" {
			continue
		}
		for off := uint64(0); off < r.Size; off += uint64(len(buf)) {
			n := uint64(len(buf))
			if r.Size-off < n {
				n = r.Size - off
			}
			if err := m.ReadVirt(r.Base+off, buf[:n]); err != nil {
				t.Fatalf("reading data region at 0x%x: %v", r.Base+off, err)
			}
			h.Write(buf[:n])
		}
	}
	return h.Sum64()
}

func captureArch(t *testing.T, m *Machine, p *prog.Program) archState {
	t.Helper()
	st := archState{
		committed: m.Stats().Committed,
		loads:     m.Stats().CommittedLoads,
		stores:    m.Stats().CommittedStores,
		dataHash:  dataDigest(t, m, p),
	}
	for r := 0; r < isa.NumRegs; r++ {
		st.regs[r] = m.Reg(isa.Reg(r))
	}
	return st
}

// TestAllDesignsArchEquivalent is the cross-design equivalence table:
// every Table 2 translation design, run on every workload, must retire
// the same instruction stream to the same architected state — designs
// may only change timing. Each run also carries the lockstep checker,
// so every (design, workload) cell is additionally verified commit-by-
// commit against the golden emulator.
func TestAllDesignsArchEquivalent(t *testing.T) {
	for _, w := range progen.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p, err := w.Build(prog.Budget32, workload.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			var want archState
			for i, design := range tlb.DesignOrder {
				cfg := DefaultConfig()
				cfg.Lockstep = true
				m, err := NewWithDesign(p, cfg, design)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatalf("%s: %v", design, err)
				}
				if !m.Halted() {
					t.Fatalf("%s: did not halt", design)
				}
				got := captureArch(t, m, p)
				if i == 0 {
					want = got
					continue
				}
				ref := tlb.DesignOrder[0]
				if got.committed != want.committed || got.loads != want.loads || got.stores != want.stores {
					t.Errorf("%s committed %d insts (%d loads, %d stores); %s committed %d (%d, %d)",
						design, got.committed, got.loads, got.stores, ref, want.committed, want.loads, want.stores)
				}
				for r := 0; r < isa.NumRegs; r++ {
					if got.regs[r] != want.regs[r] {
						t.Errorf("%s: final %s = 0x%x, %s has 0x%x",
							design, isa.Reg(r), got.regs[r], ref, want.regs[r])
						break
					}
				}
				if got.dataHash != want.dataHash {
					t.Errorf("%s: final data-region digest %#x differs from %s's %#x",
						design, got.dataHash, ref, want.dataHash)
				}
			}
		})
	}
}
