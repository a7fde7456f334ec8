package cpu

import (
	"testing"

	"hbat/internal/emu"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/workload"
)

// TestPipelineMatchesEmulatorAllWorkloads is the golden correctness
// test: for every workload, the timing pipeline must commit exactly the
// emulator's instruction/load/store counts and produce identical
// architectural memory, for a representative set of TLB designs and
// both issue models. Any wrong-path leak, forwarding bug, squash error,
// or TLB-device misbehaviour shows up here.
func TestPipelineMatchesEmulatorAllWorkloads(t *testing.T) {
	designs := []string{"T4", "T1", "M4", "P8", "PB1", "I4/PB"}
	for _, w := range progen.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p, err := w.Build(prog.Budget32, workload.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := emu.New(p, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(50_000_000); err != nil {
				t.Fatal(err)
			}

			for _, design := range designs {
				m, err := NewWithDesign(p, DefaultConfig(), design)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatalf("%s: %v\n%s", design, err, m.DebugHead())
				}
				if !m.Halted() {
					t.Fatalf("%s: did not halt", design)
				}
				s := m.Stats()
				if s.Committed != ref.InstCount {
					t.Errorf("%s: committed %d, emulator %d", design, s.Committed, ref.InstCount)
				}
				if s.CommittedLoads != ref.LoadCount || s.CommittedStores != ref.StoreCount {
					t.Errorf("%s: loads/stores %d/%d, emulator %d/%d",
						design, s.CommittedLoads, s.CommittedStores, ref.LoadCount, ref.StoreCount)
				}
				// Architectural memory: compare 4 KB spanning the
				// data base (where checksums and tables live).
				got := make([]byte, 4096)
				want := make([]byte, 4096)
				if err := m.ReadVirt(prog.DataBase, got); err != nil {
					t.Fatal(err)
				}
				if err := ref.ReadVirt(prog.DataBase, want); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s: memory differs at data+%d: %#x vs %#x", design, i, got[i], want[i])
						break
					}
				}
			}

			// In-order model, T4 only (it is 5-10x slower).
			cfg := DefaultConfig()
			cfg.InOrder = true
			m, err := NewWithDesign(p, cfg, "T4")
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatalf("inorder: %v", err)
			}
			if m.Stats().Committed != ref.InstCount {
				t.Errorf("inorder: committed %d, emulator %d", m.Stats().Committed, ref.InstCount)
			}
		})
	}
}

// TestFewRegistersPipelineCorrectness runs the Budget8 builds through
// the pipeline too (spill code stresses store-forwarding hard).
func TestFewRegistersPipelineCorrectness(t *testing.T) {
	for _, name := range []string{"compress", "tfft", "perl", "xlisp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Build(prog.Budget8, workload.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := emu.New(p, 4096)
			if err := ref.Run(100_000_000); err != nil {
				t.Fatal(err)
			}
			m, err := NewWithDesign(p, DefaultConfig(), "P8")
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if m.Stats().Committed != ref.InstCount {
				t.Errorf("committed %d, emulator %d", m.Stats().Committed, ref.InstCount)
			}
		})
	}
}

// TestPageSize8kCorrectness runs with the Figure 8 page size.
func TestPageSize8kCorrectness(t *testing.T) {
	w, _ := workload.ByName("mpeg_play")
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := emu.New(p, 8192)
	if err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PageSize = 8192
	m, err := NewWithDesign(p, cfg, "M8")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Committed != ref.InstCount {
		t.Errorf("committed %d, emulator %d", m.Stats().Committed, ref.InstCount)
	}
}
