package cpu

import (
	"testing"

	"hbat/internal/emu"
	"hbat/internal/isa"
	"hbat/internal/prog"
)

// buildSumProgram builds a loop that sums array elements and stores the
// result, exercising loads, stores, branches, and pointer arithmetic.
func buildSumProgram(t *testing.T, n int, budget prog.RegBudget) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("sum")
	arr := b.Alloc("arr", uint64(8*n), 8)
	words := make([]uint64, n)
	for i := range words {
		words[i] = uint64(i * 3)
	}
	b.SetWords(arr, words)
	b.Alloc("result", 8, 8)

	p := b.IVar("p")
	end := b.IVar("end")
	sum := b.IVar("sum")
	v := b.IVar("v")
	res := b.IVar("res")

	b.La(p, "arr")
	b.Addi(end, p, int32(8*n))
	b.Move(sum, isa.Zero)
	b.Label("loop")
	b.LdPost(v, p, 8)
	b.Add(sum, sum, v)
	b.Bne(p, end, "loop")
	b.La(res, "result")
	b.Sd(sum, res, 0)
	b.Halt()

	pr, err := b.Finalize(budget)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return pr
}

func TestSmokeOutOfOrderMatchesEmulator(t *testing.T) {
	for _, design := range []string{"T4", "T1", "M8", "P8", "PB1", "I4", "I4/PB", "X4", "M4"} {
		t.Run(design, func(t *testing.T) {
			p := buildSumProgram(t, 100, prog.Budget32)

			ref, err := emu.New(p, 4096)
			if err != nil {
				t.Fatalf("emu.New: %v", err)
			}
			if err := ref.Run(0); err != nil {
				t.Fatalf("emu.Run: %v", err)
			}

			cfg := DefaultConfig()
			m, err := NewWithDesign(p, cfg, design)
			if err != nil {
				t.Fatalf("NewWithDesign: %v", err)
			}
			if err := m.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !m.Halted() {
				t.Fatalf("machine did not halt (cycles=%d committed=%d)", m.cycle, m.Stats().Committed)
			}
			if got, want := m.Stats().Committed, ref.InstCount; got != want {
				t.Errorf("committed %d insts, emulator retired %d", got, want)
			}

			var got, want [8]byte
			if err := m.ReadVirt(prog.DataBase+800, got[:]); err != nil {
				t.Fatalf("ReadVirt: %v", err)
			}
			if err := ref.ReadVirt(prog.DataBase+800, want[:]); err != nil {
				t.Fatalf("emu ReadVirt: %v", err)
			}
			if got != want {
				t.Errorf("result mismatch: cpu %v emu %v", got, want)
			}
		})
	}
}

func TestSmokeInOrder(t *testing.T) {
	p := buildSumProgram(t, 100, prog.Budget32)
	cfg := DefaultConfig()
	cfg.InOrder = true
	m, err := NewWithDesign(p, cfg, "T4")
	if err != nil {
		t.Fatalf("NewWithDesign: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !m.Halted() {
		t.Fatal("in-order machine did not halt")
	}

	ooo, _ := NewWithDesign(p, DefaultConfig(), "T4")
	if err := ooo.Run(); err != nil {
		t.Fatalf("ooo Run: %v", err)
	}
	if m.Stats().Cycles <= ooo.Stats().Cycles {
		t.Errorf("in-order (%d cycles) should be slower than out-of-order (%d cycles)",
			m.Stats().Cycles, ooo.Stats().Cycles)
	}
}

func TestSmokeFewRegisters(t *testing.T) {
	p32 := buildSumProgram(t, 100, prog.Budget32)
	p8 := buildSumProgram(t, 100, prog.Budget8)
	if p8.SpillSlots == 0 {
		t.Skip("sum program fits in 8 registers; spilling not exercised here")
	}
	m32, _ := NewWithDesign(p32, DefaultConfig(), "T4")
	m8, _ := NewWithDesign(p8, DefaultConfig(), "T4")
	if err := m32.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m8.Run(); err != nil {
		t.Fatal(err)
	}
	if m8.Stats().CommittedLoads <= m32.Stats().CommittedLoads {
		t.Errorf("8-register build should issue more loads (%d vs %d)",
			m8.Stats().CommittedLoads, m32.Stats().CommittedLoads)
	}
}
