package cpu

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"hbat/internal/ckpt"
	"hbat/internal/emu"
	"hbat/internal/isa"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/workload"
)

// ffwdDesigns spans all four device families: multiported,
// multi-level, interleaved, and pretranslation.
var ffwdDesigns = []string{"T4", "M8", "I4", "P8"}

// Stated tolerances of the two-phase mode: warmed state approximates
// (never replays) the skipped prefix's exact microarchitectural history,
// so the measurement window's timing may drift within these bounds while
// architectural state stays bit-identical.
const (
	ffwdIPCTol  = 0.05  // relative, window IPC
	ffwdMissTol = 0.005 // absolute, window TLB miss rate
)

// functionalLength runs the workload on the emulator and returns its
// total instruction count.
func functionalLength(t *testing.T, p *prog.Program) uint64 {
	t.Helper()
	em, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := em.Run(0); err != nil {
		t.Fatal(err)
	}
	return em.InstCount
}

// TestFastForwardDifferential is the two-phase mode's correctness table:
// for every workload and a design from each device family, a full
// cycle-accurate run and a fast-forward+measure run of the same
// measurement window must produce bit-identical architectural state
// (registers, data image, retirement counts — the fast-forward runs
// carry the lockstep checker from the handoff point, so every measured
// commit is additionally verified against the restored golden emulator)
// and window IPC / TLB miss rate within the stated tolerances.
func TestFastForwardDifferential(t *testing.T) {
	for _, w := range progen.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p, err := w.Build(prog.Budget32, workload.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			total := functionalLength(t, p)
			n := total / 2
			if n == 0 {
				t.Fatalf("workload too short to split: %d insts", total)
			}

			for _, design := range ffwdDesigns {
				// Full cycle-accurate run, program entry to halt.
				fullCfg := DefaultConfig()
				fullCfg.Lockstep = true
				full, err := NewWithDesign(p, fullCfg, design)
				if err != nil {
					t.Fatal(err)
				}
				if err := full.Run(); err != nil {
					t.Fatalf("%s full run: %v", design, err)
				}
				if !full.Halted() {
					t.Fatalf("%s full run did not halt", design)
				}

				// Prefix run: the same machine configuration stopped at
				// the fast-forward point, to difference the full run's
				// stats down to the measurement window.
				prefixCfg := DefaultConfig()
				prefixCfg.MaxInsts = n
				prefix, err := NewWithDesign(p, prefixCfg, design)
				if err != nil {
					t.Fatal(err)
				}
				if err := prefix.Run(); err != nil {
					t.Fatalf("%s prefix run: %v", design, err)
				}

				// Two-phase run: functional fast-forward over the prefix,
				// cycle-accurate measurement to halt, lockstep-checked
				// against the restored golden reference.
				ffwdCfg := DefaultConfig()
				ffwdCfg.Lockstep = true
				if ffwdCfg, err = WithCheckpoint(p, ffwdCfg, n); err != nil {
					t.Fatal(err)
				}
				ffwd, err := NewWithDesign(p, ffwdCfg, design)
				if err != nil {
					t.Fatal(err)
				}
				if err := ffwd.Run(); err != nil {
					t.Fatalf("%s fast-forward run: %v", design, err)
				}
				if !ffwd.Halted() {
					t.Fatalf("%s fast-forward run did not halt", design)
				}
				if got := ffwd.Stats().FastForwarded; got != n {
					t.Fatalf("%s: FastForwarded = %d, want %d", design, got, n)
				}

				// Architectural state: bit-identical.
				if got, want := ffwd.Stats().FastForwarded+ffwd.Stats().Committed, full.Stats().Committed; got != want {
					t.Errorf("%s: fast-forwarded %d + committed %d = %d insts, full run committed %d",
						design, ffwd.Stats().FastForwarded, ffwd.Stats().Committed, got, want)
				}
				for r := 0; r < isa.NumRegs; r++ {
					if got, want := ffwd.Reg(isa.Reg(r)), full.Reg(isa.Reg(r)); got != want {
						t.Errorf("%s: final %s = 0x%x, full run has 0x%x", design, isa.Reg(r), got, want)
						break
					}
				}
				if got, want := dataDigest(t, ffwd, p), dataDigest(t, full, p); got != want {
					t.Errorf("%s: final data-region digest %#x differs from full run's %#x", design, got, want)
				}

				// Timing: the fast-forward run's measurement window vs
				// the same window of the full run (full minus prefix).
				winCommitted := full.Stats().Committed - prefix.Stats().Committed
				winCycles := full.Stats().Cycles - prefix.Stats().Cycles
				if winCycles <= 0 {
					t.Fatalf("%s: empty measurement window in full run", design)
				}
				wantIPC := float64(winCommitted) / float64(winCycles)
				gotIPC := ffwd.Stats().IPC()
				if rel := math.Abs(gotIPC-wantIPC) / wantIPC; rel > ffwdIPCTol {
					t.Errorf("%s: window IPC %.4f vs full run's %.4f (rel err %.3f > %.2f)",
						design, gotIPC, wantIPC, rel, ffwdIPCTol)
				}

				fullTLB, prefTLB := full.DTLB.Stats(), prefix.DTLB.Stats()
				winLookups := fullTLB.Lookups - prefTLB.Lookups
				wantMiss := 0.0
				if winLookups > 0 {
					wantMiss = float64(fullTLB.Misses-prefTLB.Misses) / float64(winLookups)
				}
				gotMiss := 0.0
				if s := ffwd.DTLB.Stats(); s.Lookups > 0 {
					gotMiss = float64(s.Misses) / float64(s.Lookups)
				}
				if diff := math.Abs(gotMiss - wantMiss); diff > ffwdMissTol {
					t.Errorf("%s: window TLB miss rate %.4f vs full run's %.4f (abs err %.4f > %.3f)",
						design, gotMiss, wantMiss, diff, ffwdMissTol)
				}
			}
		})
	}
}

// TestCheckpointOutlivesItsRestores: a checkpoint's frames are shared by
// every restore and owned by none. Machines restored from one
// checkpoint at once, and functional machines restored from it, each
// run their window to halt, writing memory as they go; the checkpoint
// must still encode to the bytes it had before any of them ran.
func TestCheckpointOutlivesItsRestores(t *testing.T) {
	p, err := progen.Workloads()[0].Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	n := ref.InstCount / 2
	c, err := ckpt.Build(context.Background(), p, ckpt.BuildConfig{
		PageSize:    4096,
		FastForward: n,
		ICache:      DefaultConfig().ICache,
		DCache:      DefaultConfig().DCache,
		Branch:      DefaultConfig().Branch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.StoreCount == ref.StoreCount {
		t.Fatal("the window makes no store: the test needs one that writes memory")
	}
	before := c.Encode()

	var wg sync.WaitGroup
	for _, design := range ffwdDesigns {
		wg.Add(2)
		go func() {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.FastForward = n
			cfg.Checkpoint = c
			cfg.Lockstep = true // restores a functional golden model too
			m, err := NewWithDesign(p, cfg, design)
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Run(); err != nil || !m.Halted() {
				t.Errorf("%s: restored run: halted=%v err=%v", design, m.Halted(), err)
			}
		}()
		go func() {
			defer wg.Done()
			em := c.RestoreEmu(p)
			if err := em.Run(0); err != nil || em.StoreCount != ref.StoreCount {
				t.Errorf("functional restore: %d stores, want %d; err=%v", em.StoreCount, ref.StoreCount, err)
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(c.Encode(), before) {
		t.Fatal("restored machines' writes reached the checkpoint they restored from")
	}
}

// spinProgram builds a program that never halts: a run of it can only
// end via cancellation.
func spinProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("spin")
	x := b.IVar("x")
	b.Move(x, isa.Zero)
	b.Label("loop")
	b.Addi(x, x, 1)
	b.J("loop")
	b.Halt()
	p, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return p
}

// spinWindow is a machine restored from a checkpoint of spinProgram's
// first 1000 instructions: its measurement window never ends.
func spinWindow(t *testing.T) *Machine {
	t.Helper()
	p := spinProgram(t)
	cfg, err := WithCheckpoint(p, DefaultConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithDesign(p, cfg, "T4")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFastForwardCancellation mirrors the sweep engine's in-flight
// cancellation test: SetCancel's context must interrupt a restored
// machine's measurement window promptly.
func TestFastForwardCancellation(t *testing.T) {
	m := spinWindow(t)
	ctx, cancel := context.WithCancel(context.Background())
	m.SetCancel(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := m.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt interruption", el)
	}
}

// TestFastForwardAlreadyCancelled: a context cancelled before Run must
// stop a restored machine at the first poll, before its first cycle.
func TestFastForwardAlreadyCancelled(t *testing.T) {
	m := spinWindow(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.SetCancel(ctx)
	if err := m.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if m.Stats().Cycles != 0 || m.Stats().FastForwarded != 1000 {
		t.Fatalf("cancelled run: %d cycles, %d fast-forwarded; want 0 and the restored 1000",
			m.Stats().Cycles, m.Stats().FastForwarded)
	}
}
