package cpu

import (
	"errors"
	"strings"
	"testing"

	"hbat/internal/isa"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

func lockstepProgram(t *testing.T, name string, budget prog.RegBudget) *prog.Program {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(budget, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLockstepCleanRun proves the checker is quiet on correct machines:
// the full pipeline commits in lockstep with the emulator across
// representative designs and issue/cache/flush variants, to a clean
// halt with every commit checked.
func TestLockstepCleanRun(t *testing.T) {
	p := lockstepProgram(t, "compress", prog.Budget32)
	for _, design := range []string{"T4", "T1", "PB1", "M4", "P8"} {
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
	}
}

// TestLockstepConfigVariants covers the timing switches that most
// distort commit behaviour: in-order issue, the virtual data cache, and
// periodic full-TLB flushes. None may change architected state.
func TestLockstepConfigVariants(t *testing.T) {
	variants := map[string]func(*Config){
		"inorder": func(c *Config) { c.InOrder = true },
		"vcache":  func(c *Config) { c.VirtualCache = true },
		"flush":   func(c *Config) { c.FlushTLBEvery = 1000 },
	}
	p := lockstepProgram(t, "tfft", prog.Budget8)
	for name, mod := range variants {
		name, mod := name, mod
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Lockstep = true
			mod(&cfg)
			m, err := NewWithDesign(p, cfg, "T2")
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if !m.Halted() {
				t.Fatal("did not halt")
			}
		})
	}
}

// runWithInjectedFault runs xlisp under lockstep with a commit-stage
// fault injector installed and returns the resulting error.
func runWithInjectedFault(t *testing.T, hook func(*Machine, *robEntry)) error {
	t.Helper()
	p := lockstepProgram(t, "xlisp", prog.Budget32)
	cfg := DefaultConfig()
	cfg.Lockstep = true
	m, err := NewWithDesign(p, cfg, "T4")
	if err != nil {
		t.Fatal(err)
	}
	m.testCommitHook = hook
	return m.Run()
}

func wantDivergence(t *testing.T, err error, reasonWord string) *DivergenceError {
	t.Helper()
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("wanted a *DivergenceError, got %v", err)
	}
	if !strings.Contains(div.Reason, reasonWord) {
		t.Errorf("reason %q does not mention %q", div.Reason, reasonWord)
	}
	if len(div.Window) == 0 && div.Commit > 0 {
		t.Error("divergence report has no context window")
	}
	if !strings.Contains(div.Error(), div.Reason) {
		t.Error("Error() does not render the reason")
	}
	return div
}

// TestLockstepDetectsRegisterCorruption is the acceptance-criterion
// negative test: a deliberately injected commit-stage bug (a destination
// register silently flipped at retirement) must surface as a
// DivergenceError naming the register, not be absorbed into statistics.
func TestLockstepDetectsRegisterCorruption(t *testing.T) {
	injected := false
	err := runWithInjectedFault(t, func(m *Machine, e *robEntry) {
		if injected || e.inst.Op == isa.Halt {
			return
		}
		for i := 0; i < e.ndest; i++ {
			if r := e.dests[i].reg; r != isa.Zero {
				m.regs[r] ^= 0x40
				injected = true
				return
			}
		}
	})
	if !injected {
		t.Fatal("fault was never injected")
	}
	div := wantDivergence(t, err, "register")
	if div.Inst == "" {
		t.Error("divergence did not decode the committing instruction")
	}
}

// TestLockstepDetectsStoreCorruption injects a commit-stage memory bug:
// the store's architected write lands with a flipped byte.
func TestLockstepDetectsStoreCorruption(t *testing.T) {
	injected := false
	err := runWithInjectedFault(t, func(m *Machine, e *robEntry) {
		if injected || !e.isStore {
			return
		}
		m.writeMem(e.paddr, e.memWidth, e.storeVal^0xFF)
		injected = true
	})
	if !injected {
		t.Fatal("fault was never injected")
	}
	wantDivergence(t, err, "store")
}

// TestLockstepDetectsCommitOrderBreak injects a wrong-path commit (the
// retiring entry claims a PC the reference is not at).
func TestLockstepDetectsCommitOrderBreak(t *testing.T) {
	injected := false
	err := runWithInjectedFault(t, func(m *Machine, e *robEntry) {
		if injected {
			return
		}
		e.pc += isa.InstBytes
		injected = true
	})
	wantDivergence(t, err, "commit-order")
}
