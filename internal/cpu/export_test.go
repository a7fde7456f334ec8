package cpu

import (
	"context"
	"fmt"

	"hbat/internal/ckpt"
	"hbat/internal/isa"
	"hbat/internal/prog"
	"hbat/internal/stats"
)

// WithCheckpoint returns cfg set to fast-forward over p's first n
// instructions, restoring the checkpoint ckpt.Build makes of them with
// cfg's page size, caches and predictor: what the engine does for a
// fast-forwarded spec.
func WithCheckpoint(p *prog.Program, cfg Config, n uint64) (Config, error) {
	c, err := ckpt.Build(context.Background(), p, ckpt.BuildConfig{
		PageSize: cfg.PageSize, FastForward: n,
		ICache: cfg.ICache, DCache: cfg.DCache, Branch: cfg.Branch,
	})
	if err != nil {
		return cfg, err
	}
	cfg.FastForward, cfg.Checkpoint = n, c
	return cfg, nil
}

// DrainReleased empties the pool of released machines, so the next New
// builds a machine from nothing.
func DrainReleased() {
	for released.Get() != nil {
	}
}

// Halted reports whether the program executed Halt.
func (m *Machine) Halted() bool { return m.halted }

// Reg returns an architected register's value (for tests).
func (m *Machine) Reg(r isa.Reg) uint64 { return m.regs[r] }

// DebugHead renders the ROB head entry, for the failure messages of
// tests that diagnose stalls.
func (m *Machine) DebugHead() string {
	e := m.rob.headEntry()
	if e == nil {
		return fmt.Sprintf("rob empty; fetchPC=0x%x stall=%d haltPending=%v qlen=%d tlbMiss=%d",
			m.fetchPC, m.fetchStallUntil, m.haltPending, m.fetchQLen(), m.tlbMissOutstanding)
	}
	return fmt.Sprintf("head pc=0x%x %v state=%d doneAt=%d addrReady=%v walking=%v walkDone=%d memReqAt=%d effAddr=0x%x cycle=%d count=%d lsq=%d tlbMiss=%d",
		e.pc, e.inst, e.state, e.doneAt, e.addrReady, e.walking, e.walkDone, e.memReqAt, e.effAddr, m.cycle, m.rob.count, m.lsqCount, m.tlbMissOutstanding)
}

// Metrics renders the run's metrics export (valid after Run, before
// Release).
func (m *Machine) Metrics() stats.Snapshot {
	return RenderMetrics(&m.stats, m.DTLB.Stats())
}
