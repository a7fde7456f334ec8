package cpu

import (
	"testing"

	"hbat/internal/prog"
	"hbat/internal/workload"
)

// TestContextSwitchFlushes: periodic full flushes must occur at the
// configured interval and can only cost cycles, never change
// architecture.
func TestContextSwitchFlushes(t *testing.T) {
	w, err := workload.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewWithDesign(p, DefaultConfig(), "M8")
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.FlushTLBEvery = 5000
	m, err := NewWithDesign(p, cfg, "M8")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Committed != base.Stats().Committed {
		t.Fatalf("flushes changed architecture: %d vs %d",
			m.Stats().Committed, base.Stats().Committed)
	}
	wantFlushes := base.Stats().Committed / 5000
	if m.Stats().ContextFlushes < wantFlushes/2 || m.Stats().ContextFlushes > wantFlushes+2 {
		t.Fatalf("flushes = %d, expected about %d", m.Stats().ContextFlushes, wantFlushes)
	}
	if m.Stats().TLBWalks <= base.Stats().TLBWalks {
		t.Fatal("flushing did not increase walks")
	}
	if m.Stats().Cycles < base.Stats().Cycles {
		t.Fatal("flushing made the machine faster")
	}
	t.Logf("flushes %d, walks %d->%d, cycles %d->%d",
		m.Stats().ContextFlushes, base.Stats().TLBWalks, m.Stats().TLBWalks,
		base.Stats().Cycles, m.Stats().Cycles)
}
