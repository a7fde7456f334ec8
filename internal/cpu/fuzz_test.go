package cpu

import (
	"fmt"
	"testing"

	"hbat/internal/emu"
	"hbat/internal/prog"
	"hbat/internal/progen"
)

// TestRandomProgramsDifferential generates random programs and checks
// that the out-of-order pipeline (on several TLB designs) and the
// in-order pipeline retire exactly the functional emulator's state:
// same instruction counts, same registers, same memory. This is the
// net that catches forwarding, squash, renaming, and device bugs the
// directed tests miss.
func TestRandomProgramsDifferential(t *testing.T) {
	designs := []string{"T4", "T1", "M4", "P8", "I4/PB"}
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			p, err := progen.Generate(uint64(s)*2654435761+17, 150, prog.Budget32, progen.Flavor(s)%progen.NumFlavors)
			if err != nil {
				t.Fatalf("gen: %v", err)
			}
			ref, err := emu.New(p, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(10_000_000); err != nil {
				t.Fatalf("emu: %v", err)
			}
			want := make([]byte, 4096+64)
			if err := ref.ReadVirt(prog.DataBase, want); err != nil {
				t.Fatal(err)
			}

			check := func(name string, m *Machine) {
				if err := runChecked(m); err != nil {
					t.Fatalf("%s: %v\n%s", name, err, m.DebugHead())
				}
				if m.Stats().Committed != ref.InstCount {
					t.Errorf("%s: committed %d, emu %d", name, m.Stats().Committed, ref.InstCount)
				}
				got := make([]byte, len(want))
				if err := m.ReadVirt(prog.DataBase, got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s: memory differs at +%d (%#x vs %#x)", name, i, got[i], want[i])
						return
					}
				}
			}

			// Every machine also runs the lockstep checker, so a
			// divergence is caught at the offending commit (with a
			// decoded context window) instead of at the final-state
			// comparison below, and has its scheduler state checked
			// against a full scan after every cycle, on a ring of a
			// whole word, a part of one, or a single slot.
			design := designs[s%len(designs)]
			robSize := []int{64, 48, 17, 1}[s%4]
			name := fmt.Sprintf("%s/rob%d", design, robSize)
			cfg := DefaultConfig()
			cfg.Lockstep, cfg.ROBSize = true, robSize
			m, err := NewWithDesign(p, cfg, design)
			if err != nil {
				t.Fatal(err)
			}
			check(name, m)

			cfg = DefaultConfig()
			cfg.Lockstep, cfg.ROBSize = true, robSize
			cfg.InOrder = true
			mi, err := NewWithDesign(p, cfg, design)
			if err != nil {
				t.Fatal(err)
			}
			check(name+"/inorder", mi)

			cfg = DefaultConfig()
			cfg.Lockstep, cfg.ROBSize = true, robSize
			cfg.VirtualCache = true
			mv, err := NewWithDesign(p, cfg, design)
			if err != nil {
				t.Fatal(err)
			}
			check(name+"/vcache", mv)
		})
	}
}

// FuzzLockstep feeds generated programs through the timed pipeline with
// the lockstep differential checker enabled: every commit is compared
// against the golden emulator, so any divergence the fuzzer provokes is
// reported at the exact instruction, not as a garbled final state. The
// seed corpus pins the three hazard classes the checker exists for:
// store-forwarding pressure, wrong-path squash recovery, and the 8/8
// register budget's spill/reload traffic.
func FuzzLockstep(f *testing.F) {
	// seed, length, design index, flavor, flags (1=Budget8, 2=inorder, 4=vcache)
	f.Add(uint64(17), uint16(150), uint8(0), progen.FlavorMixed, uint8(0))
	f.Add(uint64(4242), uint16(220), uint8(1), progen.FlavorMem, uint8(0))     // store-forwarding heavy on a 1-port TLB
	f.Add(uint64(907), uint16(220), uint8(2), progen.FlavorBranchy, uint8(0))  // squash heavy on the multi-level TLB
	f.Add(uint64(1251), uint16(180), uint8(3), progen.FlavorMixed, uint8(1))   // spill/reload under the 8/8 budget
	f.Add(uint64(77), uint16(160), uint8(4), progen.FlavorMem, uint8(1|2))     // Budget8 + in-order piggyback TLB
	f.Add(uint64(3301), uint16(160), uint8(0), progen.FlavorBranchy, uint8(4)) // virtually-indexed cache path
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, designIdx, flavor, flags uint8) {
		designs := []string{"T4", "T1", "M4", "P8", "I4/PB"}
		nInsts := 20 + int(n)%400
		budget := prog.Budget32
		if flags&1 != 0 {
			budget = prog.Budget8
		}
		p, err := progen.Generate(seed, nInsts, budget, flavor%progen.NumFlavors)
		if err != nil {
			t.Fatalf("gen: %v", err)
		}
		cfg := DefaultConfig()
		cfg.Lockstep = true
		cfg.InOrder = flags&2 != 0
		cfg.VirtualCache = flags&4 != 0
		m, err := NewWithDesign(p, cfg, designs[int(designIdx)%len(designs)])
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("lockstep: %v\n%s", err, m.DebugHead())
		}
		if !m.Halted() {
			t.Fatal("machine did not halt")
		}
	})
}
