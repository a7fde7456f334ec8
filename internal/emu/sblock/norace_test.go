//go:build !race

package sblock_test

import (
	"testing"

	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/prog"
)

// steadyLoopProgram builds an endless loop with live memory traffic:
// every iteration loads and stores through a small buffer and takes a
// backward branch, so repeated runs exercise the block dispatcher, the
// software translation cache, and (in a warm run) the sink calls — the
// whole fast path.
func steadyLoopProgram(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("steady")
	buf := b.Alloc("buf", 4096, 8)
	base := b.IVar("base")
	v := b.IVar("v")
	i := b.IVar("i")
	b.Li(base, int64(buf))
	b.Li(v, 1)
	b.Li(i, 0)
	b.Label("loop")
	b.Sd(v, base, 0)
	b.Ld(v, base, 8)
	b.Addi(v, v, 3)
	b.Sd(v, base, 8)
	b.Addi(i, i, 1)
	b.Bgtz(i, "loop")
	p, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return p
}

// nopSink is a Warmer that ignores what it is handed.
type nopSink struct{}

func (nopSink) Block(*sblock.BlockExec)          {}
func (nopSink) Ref(uint64, uint64, bool, uint64) {}

// TestWarmSteadyStateAllocs pins the fast-forward cost model: once the
// block cache and translation cache are warm, a warm run allocates
// nothing — the fused warm path's per-instruction cost is pure compute.
// (Excluded under -race: the race runtime adds its own allocations to
// instrumented code.)
func TestWarmSteadyStateAllocs(t *testing.T) {
	m, err := emu.New(steadyLoopProgram(t), 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := sblock.New(m)
	// Warm-up: translate the loop's blocks and fill the translation
	// cache.
	next := uint64(10_000)
	if err := e.Warm(next, nopSink{}); err != nil {
		t.Fatalf("warm-up Warm: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		next += 500
		if err := e.Warm(next, nopSink{}); err != nil {
			t.Fatalf("Warm: %v", err)
		}
	})
	if m.InstCount != next {
		t.Fatalf("Warm stopped at %d, want exactly %d", m.InstCount, next)
	}
	if avg != 0 {
		t.Errorf("steady-state Warm allocates %.2f times per slice, want 0", avg)
	}
}

// TestEngineRunSteadyStateAllocs is the same guard for the plain Run
// loop (driven in budget slices, as the checkpoint-less caller would).
func TestEngineRunSteadyStateAllocs(t *testing.T) {
	m, err := emu.New(steadyLoopProgram(t), 4096)
	if err != nil {
		t.Fatal(err)
	}
	e := sblock.New(m)
	if rerr := e.Run(10_000); rerr == nil {
		t.Fatal("expected budget stop")
	}
	next := m.InstCount
	avg := testing.AllocsPerRun(200, func() {
		next += 500
		if rerr := e.Run(next); rerr == nil {
			t.Fatal("expected budget stop")
		}
	})
	if avg == 0 {
		return
	}
	// Run's budget stop returns a formatted error; tolerate only that
	// one fmt.Errorf (boxed operands + message + wrapper), nothing
	// from the dispatch path itself.
	if avg > 5 {
		t.Errorf("steady-state Run allocates %.2f times per slice, want <= 5 (the budget error)", avg)
	}
}
