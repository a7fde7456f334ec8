package cpu

import (
	"fmt"

	"hbat/internal/ckpt"
	"hbat/internal/tlb"
)

// FastForward restores the two-phase simulation's checkpoint
// (Config.Checkpoint) ahead of the first simulated cycle. Run calls it
// automatically; callers that want to time the restore separately from
// the cycle loop (the engine's span tracer does) may invoke it
// explicitly first — it is idempotent, and any error it returns is
// sticky and re-reported by Run.
func (m *Machine) FastForward() error {
	if m.err == nil && m.cfg.FastForward > 0 && m.stats.FastForwarded == 0 {
		if err := m.restoreCheckpoint(m.cfg.Checkpoint); err != nil {
			m.err = fmt.Errorf("cpu: fast-forward: %w", err)
		}
	}
	return m.err
}

// restoreCheckpoint injects the warmed checkpoint ckpt.Build made of
// the first Config.FastForward instructions: the machine's
// architectural and warmed microarchitectural state become the
// checkpoint's. The address space is mutated in place — the TLB device
// captured its pointer at construction — while physical memory, which
// nothing aliases, is replaced wholesale by a copy-on-write view of the
// checkpoint's frames (the checkpoint's zero-frame omission assumes a
// fresh store, and New loads no data segment into a machine that will
// fast-forward).
func (m *Machine) restoreCheckpoint(c *ckpt.Checkpoint) error {
	if c.PageSize != m.cfg.PageSize {
		return fmt.Errorf("cpu: checkpoint page size %d does not match config %d", c.PageSize, m.cfg.PageSize)
	}
	if c.FastForward != m.cfg.FastForward {
		return fmt.Errorf("cpu: checkpoint fast-forward %d does not match config %d", c.FastForward, m.cfg.FastForward)
	}

	// Architectural state.
	m.regs = c.Regs
	m.fetchPC = c.PC
	m.fetchVPN = ^uint64(0) // the imported page table renumbers frames
	m.AS.ImportPages(c.Pages, c.NextFrame)
	m.Mem.ImportFrames(c.Frames)

	// Warmed microarchitectural state. The instruction cache always
	// imports; the data cache's checkpointed image is physically indexed,
	// so a virtually-indexed configuration starts it cold instead.
	if err := m.icache.ImportState(c.ICache); err != nil {
		return fmt.Errorf("cpu: restoring icache: %w", err)
	}
	if !m.cfg.VirtualCache {
		if err := m.dcache.ImportState(c.DCache); err != nil {
			return fmt.Errorf("cpu: restoring dcache: %w", err)
		}
	}
	if err := m.pred.ImportState(c.Pred); err != nil {
		return fmt.Errorf("cpu: restoring predictor: %w", err)
	}

	// TLB warm-up: replay the distinct-page reference stream oldest
	// first with negative recency stamps, resolving each VPN against the
	// freshly imported page table. Designs that cannot warm (none of the
	// Table 2 set) simply start cold.
	if w, ok := m.DTLB.(tlb.Warmer); ok {
		refs := c.WarmRefs
		for i, ref := range refs {
			pte, ok := m.AS.Lookup(ref.VPN)
			if !ok {
				return fmt.Errorf("cpu: warm ref vpn 0x%x not in checkpointed page table", ref.VPN)
			}
			w.Warm(ref.VPN, pte, int64(i)-int64(len(refs)))
		}
	}

	// The lockstep golden reference must start at the handoff point, not
	// at program entry.
	if m.lockstep != nil {
		m.lockstep.ref = c.RestoreEmu(m.prog)
	}

	m.stats.FastForwarded = c.FastForward
	return nil
}
