package ckpt

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hbat/internal/bpred"
	"hbat/internal/cache"
	"hbat/internal/cancelpoll"
	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/isa"
	"hbat/internal/mem"
	"hbat/internal/prog"
	"hbat/internal/vm"
)

// DefaultWarmCap bounds the retained distinct-page reference stream.
// Every Table 2 design holds at most 128 base entries plus a small
// shield, so the most recent 1024 distinct pages fully determine any
// design's warmed contents with a wide margin.
const DefaultWarmCap = 1024

// Functional-engine selectors for BuildConfig.Engine.
const (
	// EngineTranslated is the superblock-translated engine (the
	// default): pre-decoded blocks, batched warming, no per-instruction
	// decode. Observationally identical to the interpreter.
	EngineTranslated = "sblock"
	// EngineInterpreted is the reference per-instruction interpreter.
	EngineInterpreted = "interp"
)

// BuildConfig parameterizes the functional warm-up phase. The cache and
// predictor geometries must match the measuring machine's configuration
// or the state import at restore will be rejected.
type BuildConfig struct {
	PageSize    uint64
	FastForward uint64 // instructions to execute functionally (> 0)
	ICache      cache.Config
	DCache      cache.Config
	Branch      bpred.Config
	WarmCap     int // max warm refs retained; 0 means DefaultWarmCap

	// Engine selects the functional execution engine:
	// EngineTranslated (also the "" default) or EngineInterpreted.
	// Both produce byte-identical checkpoints; the interpreter remains
	// as the differential reference and debugging fallback.
	Engine string
}

// buildState is the warming state shared by both functional engines:
// the machine, the tag arrays and predictor being warmed, and the
// distinct-page reference stream.
type buildState struct {
	em     *emu.Machine
	ic, dc *cache.Cache
	pred   *bpred.Predictor
	n      uint64
	// warm is the distinct-page stream, indexed by physical frame number
	// rather than hashed by VPN: every reference reaches it holding its
	// physical address, the address space hands frames out sequentially
	// (so the table is dense up to AS.NextFrame()), and nothing unmaps
	// during a build, so a frame stands for exactly one page.
	warm     []warmInfo
	warmSeq  uint64
	pageBits uint
}

// warmInfo is one page's entry in the distinct-page stream: the
// sequence number of its most recent reference and whether any
// reference wrote it.
type warmInfo struct {
	seq   uint64
	vpn   uint64
	write bool
	used  bool
}

// notePage records a reference to the page holding paddr/vaddr as the
// page's most recent one, at sequence number seq.
func (bs *buildState) notePage(paddr, vaddr uint64, write bool, seq uint64) {
	pfn := paddr >> bs.pageBits
	if pfn >= uint64(len(bs.warm)) {
		n := 2 * uint64(len(bs.warm))
		if nf := bs.em.AS.NextFrame(); n < nf {
			n = nf
		}
		bs.warm = append(bs.warm, make([]warmInfo, n-uint64(len(bs.warm)))...)
	}
	w := &bs.warm[pfn]
	*w = warmInfo{seq: seq, vpn: vaddr >> bs.pageBits, write: w.write || write, used: true}
}

// Warm-up recency stamps are negative — instruction i of n stamps at
// i-n, in [-n, -1] — so every warmed element is strictly older than
// anything the measurement window (cycles starting at 1) touches.
func (bs *buildState) stamp(i uint64) int64 { return int64(i) - int64(bs.n) }

// consumeRefs replays a batch's data references against the warm
// structures. A reference carrying its physical address (the engine's
// own access translated it) needs no second walk — only the walk
// accounting — and a consecutive run of such references to one cache
// line collapses to a single warm access and a single distinct-page
// update: WarmAccess keeps no statistics, so its tag-array result for
// the run is the last stamp with the OR of the write bits, and the
// warm table's entry for the page is likewise the run's last sequence
// number with OR'd writes — byte-identical to the per-reference loop.
// References without a physical address (interpreter fallback, faulting
// accesses) take the reference path unchanged.
func (bs *buildState) consumeRefs(refs []sblock.MemRef) {
	lineMask := ^uint64(uint64(bs.dc.BlockBytes()) - 1)
	for i := 0; i < len(refs); {
		r := &refs[i]
		if !r.PAOK {
			bs.noteRef(r.Vaddr, r.Write, r.InstIdx)
			i++
			continue
		}
		line := r.PA & lineMask
		write := r.Write
		j := i + 1
		for j < len(refs) && refs[j].PAOK && refs[j].PA&lineMask == line {
			write = write || refs[j].Write
			j++
		}
		k := uint64(j - i)
		last := &refs[j-1]
		bs.em.AS.WalkCount += k
		bs.dc.WarmAccess(last.PA, write, bs.stamp(last.InstIdx))
		bs.notePage(last.PA, last.Vaddr, write, bs.warmSeq+k-1)
		bs.warmSeq += k
		i = j
	}
}

// noteRef warms the data cache and the distinct-page stream for one
// data reference. Translating here interleaves demand allocation
// identically with the emulator's own access (which finds the PTE
// already mapped — or, on the translated engine's batched path, the
// access came first and this translate is the one that finds it
// mapped), so the checkpointed page table is exactly what the
// functional phase alone would have produced.
func (bs *buildState) noteRef(vaddr uint64, write bool, instIdx uint64) {
	perm := vm.PermRead
	if write {
		perm = vm.PermWrite
	}
	paddr, terr := bs.em.AS.Translate(vaddr, perm)
	if terr != nil {
		return // the emulator's own access will surface the fault
	}
	bs.dc.WarmAccess(paddr, write, bs.stamp(instIdx))
	bs.notePage(paddr, vaddr, write, bs.warmSeq)
	bs.warmSeq++
}

// Build runs the functional phase: it executes the first
// cfg.FastForward instructions of p while functionally warming the
// cache tag arrays, the branch predictor, and the distinct-page
// reference stream, then snapshots everything into a Checkpoint. The
// default engine executes superblock-translated code with batched
// warming; cfg.Engine selects the per-instruction interpreter instead.
// Both engines produce byte-identical checkpoints. The context is
// polled at cancelpoll granularity (per block for the translated
// engine). Build fails with ErrShortProgram if the program halts at or
// before the fast-forward point, leaving no measurement window.
func Build(ctx context.Context, p *prog.Program, cfg BuildConfig) (*Checkpoint, error) {
	if cfg.FastForward == 0 {
		return nil, fmt.Errorf("ckpt: FastForward must be positive")
	}
	translated := true
	switch cfg.Engine {
	case "", EngineTranslated:
	case EngineInterpreted:
		translated = false
	default:
		return nil, fmt.Errorf("ckpt: unknown functional engine %q", cfg.Engine)
	}
	em, err := emu.New(p, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	// Mirror the timed machine's loader semantics: program loading must
	// not leave referenced/dirty bits behind.
	em.AS.ClearStatus()

	bs := &buildState{
		em:       em,
		ic:       cache.New(cfg.ICache),
		dc:       cache.New(cfg.DCache),
		pred:     bpred.New(cfg.Branch),
		n:        cfg.FastForward,
		pageBits: em.AS.PageBits(),
	}

	if translated {
		err = bs.runTranslated(ctx)
	} else {
		err = bs.runInterpreted(ctx)
	}
	if err != nil {
		return nil, err
	}
	return bs.snapshot(cfg), nil
}

// runInterpreted is the reference warm loop: one emu.Step per
// instruction, warming the icache on the fetch path, the dcache and
// warm stream via the OnMemRef hook, and the predictor on resolved
// control flow.
func (bs *buildState) runInterpreted(ctx context.Context) error {
	em, n := bs.em, bs.n
	poll := cancelpoll.New(ctx)
	em.OnMemRef = func(vaddr uint64, write bool) {
		bs.noteRef(vaddr, write, em.InstCount)
	}
	defer func() { em.OnMemRef = nil }()

	for em.InstCount < n {
		if poll.Due(em.InstCount) {
			if cerr := poll.Err(); cerr != nil {
				return fmt.Errorf("ckpt: build interrupted: %w", cerr)
			}
		}
		if em.Halted {
			return fmt.Errorf("%w: halted after %d of %d instructions",
				ErrShortProgram, em.InstCount, n)
		}

		pcBefore := em.PC
		in := em.Prog.InstAt(pcBefore)
		if in == nil {
			return fmt.Errorf("ckpt: PC 0x%x outside text segment", pcBefore)
		}
		// Warm the instruction cache along the fetch path. Walking (not
		// probing) demand-allocates text pages exactly as the timed
		// machine's fetch stage does, keeping frame allocation in step.
		if pte, werr := em.AS.Walk(em.AS.VPN(pcBefore)); werr == nil {
			paddr := pte.PFN<<em.AS.PageBits() | em.AS.PageOffset(pcBefore)
			bs.ic.WarmAccess(paddr, false, bs.stamp(em.InstCount))
		}

		if serr := em.Step(); serr != nil {
			return fmt.Errorf("ckpt: functional phase: %w", serr)
		}

		// Train the branch predictor on the resolved control flow.
		switch in.Class() {
		case isa.ClassBranch:
			taken := em.PC != pcBefore+isa.InstBytes
			bs.pred.WarmCond(pcBefore, taken)
			if taken {
				bs.pred.UpdateTarget(pcBefore, em.PC)
			}
		case isa.ClassJump:
			bs.pred.UpdateTarget(pcBefore, em.PC)
		}
	}
	if em.Halted {
		return fmt.Errorf("%w: halted exactly at the fast-forward point (%d instructions)",
			ErrShortProgram, n)
	}
	return nil
}

// runTranslated is the batched warm loop: the superblock engine
// executes whole blocks and reports each one's fetch stream, data
// references, and control outcome in a Batch, which consumeBatch then
// replays against the warm structures. The observable result — warmed
// tag arrays, predictor state, warm stream, page table, walk counts —
// is identical to runInterpreted's; the differential battery in this
// package pins that, byte for byte, through ckpt.Encode.
func (bs *buildState) runTranslated(ctx context.Context) error {
	em, n := bs.em, bs.n
	eng := sblock.New(em)
	eng.SetCancel(ctx)
	var batch sblock.Batch
	for em.InstCount < n {
		if em.Halted {
			return fmt.Errorf("%w: halted after %d of %d instructions",
				ErrShortProgram, em.InstCount, n)
		}
		if rerr := eng.RunBlock(n, &batch); rerr != nil {
			if cerr := ctx.Err(); cerr != nil && errors.Is(rerr, cerr) {
				return fmt.Errorf("ckpt: build interrupted: %w", cerr)
			}
			var outside sblock.OutsideTextError
			if errors.As(rerr, &outside) {
				return fmt.Errorf("ckpt: PC 0x%x outside text segment", uint64(outside))
			}
			return fmt.Errorf("ckpt: functional phase: %w", rerr)
		}
		bs.consumeBatch(&batch)
	}
	if em.Halted {
		return fmt.Errorf("%w: halted exactly at the fast-forward point (%d instructions)",
			ErrShortProgram, n)
	}
	return nil
}

// consumeBatch replays one block execution's side-band records against
// the warm structures, reproducing the interpreted loop's observable
// effects:
//
//   - the fetch stream walks once per instruction (the engine's block
//     pre-walk already counted one, and placed the text page's demand
//     allocation exactly where the interpreter's first fetch walk
//     would) and warms the icache per fetched line — consecutive
//     fetches to one line collapse to a single WarmAccess at the run's
//     last address and stamp, which is exact because WarmAccess keeps
//     no statistics and nothing else touches the set mid-run;
//   - each data reference gets the interpreter's second translate (the
//     engine's access already did the first) and its dcache/warm-stream
//     update, in program order with the interpreter's stamps;
//   - the terminating control transfer trains the predictor.
func (bs *buildState) consumeBatch(batch *sblock.Batch) {
	if batch.Count == 0 {
		return
	}
	em := bs.em
	if batch.FetchOK {
		em.AS.WalkCount += batch.Count - 1
		line := uint64(bs.ic.BlockBytes())
		for j := uint64(0); j < batch.Count; {
			end := j + (line-(batch.FetchPA+isa.InstBytes*j)%line)/isa.InstBytes
			if end == j {
				end = j + 1
			}
			if end > batch.Count {
				end = batch.Count
			}
			bs.ic.WarmAccess(batch.FetchPA+isa.InstBytes*(end-1), false, bs.stamp(batch.InstIdx0+end-1))
			j = end
		}
	}
	bs.consumeRefs(batch.Refs)
	if batch.Ctrl != sblock.CtrlNone {
		ctrlPC := batch.PC0 + isa.InstBytes*(batch.Count-1)
		switch batch.Ctrl {
		case sblock.CtrlBranch:
			bs.pred.WarmCond(ctrlPC, batch.Taken)
			if batch.Taken {
				bs.pred.UpdateTarget(ctrlPC, batch.NextPC)
			}
		case sblock.CtrlJump:
			bs.pred.UpdateTarget(ctrlPC, batch.NextPC)
		}
	}
}

// snapshot assembles the checkpoint from the warmed state.
func (bs *buildState) snapshot(cfg BuildConfig) *Checkpoint {
	em := bs.em
	c := &Checkpoint{
		PageSize:    cfg.PageSize,
		FastForward: bs.n,
		Regs:        em.Regs,
		PC:          em.PC,
		InstCount:   em.InstCount,
		LoadCount:   em.LoadCount,
		StoreCount:  em.StoreCount,
		BranchCount: em.BranchCount,
		TakenCount:  em.TakenCount,
		Pages:       em.AS.ExportPages(),
		NextFrame:   em.AS.NextFrame(),
		Frames:      em.Mem.ExportFrames(),
		ICache:      bs.ic.ExportState(),
		DCache:      bs.dc.ExportState(),
		Pred:        bs.pred.ExportState(),
	}

	// Order the distinct-page stream oldest-first by most recent use and
	// cap it to the most recent WarmCap pages.
	warmCap := cfg.WarmCap
	if warmCap <= 0 {
		warmCap = DefaultWarmCap
	}
	ordered := make([]warmInfo, 0, len(bs.warm))
	for _, w := range bs.warm {
		if w.used {
			ordered = append(ordered, w)
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	if len(ordered) > warmCap {
		ordered = ordered[len(ordered)-warmCap:]
	}
	c.WarmRefs = make([]WarmRef, len(ordered))
	for i, o := range ordered {
		c.WarmRefs[i] = WarmRef{VPN: o.vpn, Write: o.write}
	}
	return c
}

// RestoreEmu reconstructs a functional machine at the checkpoint, bound
// to p. The timing machine uses it as the lockstep golden reference for
// the measurement window; tests use it to continue functional execution
// from the handoff point.
func (c *Checkpoint) RestoreEmu(p *prog.Program) *emu.Machine {
	as := vm.NewAddressSpace(c.PageSize)
	for _, r := range p.Regions {
		as.AddRegion(r)
	}
	as.ImportPages(c.Pages, c.NextFrame)
	m := &emu.Machine{
		Prog:        p,
		AS:          as,
		Mem:         mem.New(),
		Regs:        c.Regs,
		PC:          c.PC,
		InstCount:   c.InstCount,
		LoadCount:   c.LoadCount,
		StoreCount:  c.StoreCount,
		BranchCount: c.BranchCount,
		TakenCount:  c.TakenCount,
	}
	m.Mem.ImportFrames(c.Frames)
	return m
}
