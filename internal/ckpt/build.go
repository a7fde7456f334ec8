package ckpt

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"hbat/internal/bpred"
	"hbat/internal/cache"
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

// BuildConfig parameterizes the functional warm-up phase. The cache and
// predictor geometries must match the measuring machine's configuration
// or the state import at restore will be rejected.
type BuildConfig struct {
	PageSize    uint64
	FastForward uint64 // instructions to execute functionally (> 0)
	ICache      cache.Config
	DCache      cache.Config
	Branch      bpred.Config

	warmCap int // max warm refs retained; 0, in every build but a test's, means DefaultWarmCap
}

// buildState is the warming state: the machine, the tag arrays and
// predictor being warmed, and the distinct-page reference stream. It is
// also the translated engine's sblock.Warmer, and holds the two pieces
// of work that path defers: the open run of same-line data references,
// and the I-cache hits of whole block executions that cannot miss. The
// tests' reference interpreter warms the same state one instruction at
// a time.
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

	ref       refRun
	dLineMask uint64 // ^(D-cache block bytes - 1)

	// icEpoch counts I-cache misses on the translated path (from 1, so
	// a zero blockFetch.epoch is never current).
	icEpoch uint64
	blocks  []blockFetch // by sblock.BlockExec.ID
	pending []int        // IDs whose deferred stamp is not yet applied
	runs    []fetchRun   // scratch for a partial execution's line-runs

	// Whole block executions by fetch path; tests read them.
	fetchDeferred, fetchEager uint64
}

// refRun is the open run of consecutive data references to one D-cache
// line (n > 0): the line, the last reference's addresses and index, and
// the OR of the run's write bits.
type refRun struct {
	line, pa, vaddr, idx, n uint64
	write                   bool
}

// blockFetch is one translated block's fetch state: the line-runs of a
// whole execution, the I-cache epoch at which all of them were last
// seen resident, and the start index of its latest deferred execution.
type blockFetch struct {
	runs    []fetchRun
	epoch   uint64
	start   uint64
	pending bool
}

// fetchRun is one run of consecutive fetches from one I-cache line: the
// physical address and block offset of the run's last instruction.
type fetchRun struct{ pa, off uint64 }

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

// Ref is the translated path's data-reference sink. The engine's own
// access already translated the reference, so it needs only the
// reference interpreter's second walk counted, not repeated. A run of
// consecutive references to one cache line — across block boundaries
// too — collapses to one warm access and one distinct-page update when
// the run ends: WarmAccess keeps no statistics, so its tag-array result
// for the run is the last stamp with the OR of the write bits, and the
// warm table's entry for the page is likewise the run's last sequence
// number with OR'd writes. Nothing else touches the D-cache or the warm
// table between two references, so this is byte-identical to the
// interpreter's per-reference warming.
func (bs *buildState) Ref(vaddr, pa uint64, write bool, instIdx uint64) {
	r := &bs.ref
	if r.n == 0 || pa&bs.dLineMask != r.line {
		bs.closeRef()
		r.line, r.write = pa&bs.dLineMask, false
	}
	r.n++
	r.pa, r.vaddr, r.idx = pa, vaddr, instIdx
	r.write = r.write || write
}

// closeRef applies the open reference run, if any.
func (bs *buildState) closeRef() {
	r := &bs.ref
	if r.n == 0 {
		return
	}
	bs.em.AS.WalkCount += r.n
	bs.dc.WarmAccess(r.pa, r.write, bs.stamp(r.idx))
	bs.notePage(r.pa, r.vaddr, r.write, bs.warmSeq+r.n-1)
	bs.warmSeq += r.n
	r.n = 0
}

// Build runs the functional phase: it executes the first
// cfg.FastForward instructions of p while functionally warming the
// cache tag arrays, the branch predictor, and the distinct-page
// reference stream, then snapshots everything into a Checkpoint, which
// a fast-forwarding cpu.Machine restores (cpu.Config.Checkpoint). It
// executes superblock-translated code and warms while it executes; its
// checkpoints are byte-identical to those of a per-instruction
// interpreter warming one step at a time, the reference the tests hold
// it to. The context is polled as sblock.Engine.SetCancel describes.
// Build fails with ErrShortProgram if the program halts at or before
// the fast-forward point, leaving no measurement window.
func Build(ctx context.Context, p *prog.Program, cfg BuildConfig) (*Checkpoint, error) {
	bs, err := build(ctx, p, cfg)
	if err != nil {
		return nil, err
	}
	c := bs.snapshot(cfg)
	spares.Put(&warmers{ic: bs.ic, dc: bs.dc, pred: bs.pred})
	return c, nil
}

// spares holds the tag arrays and predictor of finished builds, whose
// state the snapshot copied out: the next build of the same geometry
// resets and reuses them instead of allocating its own.
var spares sync.Pool // of *warmers

type warmers struct {
	ic, dc *cache.Cache
	pred   *bpred.Predictor
}

// build runs Build's functional phase and returns the warmed state.
func build(ctx context.Context, p *prog.Program, cfg BuildConfig) (*buildState, error) {
	bs, err := newBuildState(p, cfg)
	if err != nil {
		return nil, err
	}
	if err := bs.runTranslated(ctx); err != nil {
		return nil, err
	}
	return bs, nil
}

// newBuildState sets up the warming state of a build of p under cfg:
// the functional machine at program entry and cold tag arrays and
// predictor.
func newBuildState(p *prog.Program, cfg BuildConfig) (*buildState, error) {
	if cfg.FastForward == 0 {
		return nil, fmt.Errorf("ckpt: FastForward must be positive")
	}
	em, err := emu.New(p, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	// Mirror the timed machine's loader semantics: program loading must
	// not leave referenced/dirty bits behind.
	em.AS.ClearStatus()

	w, _ := spares.Get().(*warmers)
	if w == nil {
		w = new(warmers)
	}
	bs := &buildState{
		em:       em,
		ic:       cache.Reuse(w.ic, cfg.ICache),
		dc:       cache.Reuse(w.dc, cfg.DCache),
		pred:     bpred.Reuse(w.pred, cfg.Branch),
		n:        cfg.FastForward,
		pageBits: em.AS.PageBits(),
		icEpoch:  1,
	}
	bs.dLineMask = ^uint64(bs.dc.BlockBytes() - 1)
	return bs, nil
}

// runTranslated is the fused warm loop: the superblock engine chains
// blocks and reports each execution and data reference to bs (the
// sblock.Warmer) as it goes. The observable result — warmed tag arrays,
// predictor state, warm stream, page table, walk counts — is identical
// to the reference interpreter's; the differential battery in this
// package pins that, byte for byte, through ckpt.Encode.
func (bs *buildState) runTranslated(ctx context.Context) error {
	em, n := bs.em, bs.n
	eng := sblock.New(em)
	eng.SetCancel(ctx)
	if err := eng.Warm(n, bs); err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return fmt.Errorf("ckpt: build interrupted: %w", cerr)
		}
		var outside sblock.OutsideTextError
		if errors.As(err, &outside) {
			return fmt.Errorf("ckpt: PC 0x%x outside text segment", uint64(outside))
		}
		return fmt.Errorf("ckpt: functional phase: %w", err)
	}
	if em.Halted {
		if em.InstCount < n {
			return fmt.Errorf("%w: halted after %d of %d instructions",
				ErrShortProgram, em.InstCount, n)
		}
		return fmt.Errorf("%w: halted exactly at the fast-forward point (%d instructions)",
			ErrShortProgram, n)
	}
	bs.applyDeferred()
	bs.closeRef()
	return nil
}

// Block is the translated path's block sink. It reproduces the
// reference interpreter's per-instruction fetch — one walk and one
// I-cache warm access each — and trains the predictor on the closing
// control transfer. The engine's entry walk counted one fetch walk; the rest
// are counted in bulk. Consecutive fetches from one line collapse to a
// single warm access at the run's last address and stamp (WarmAccess
// keeps no statistics and nothing else touches the set mid-run).
func (bs *buildState) Block(x *sblock.BlockExec) {
	if x.FetchOK {
		bs.em.AS.WalkCount += x.Count - 1
		bs.fetch(x)
	}
	if x.Ctrl != sblock.CtrlNone {
		ctrlPC := x.PC0 + isa.InstBytes*(x.Count-1)
		if x.Ctrl == sblock.CtrlBranch {
			bs.pred.WarmCond(ctrlPC, x.Taken)
		}
		if x.Taken {
			bs.pred.UpdateTarget(ctrlPC, x.NextPC)
		}
	}
}

// fetch warms the I-cache for one block execution. A whole execution of
// a block whose lines were all resident at the current epoch — no miss
// since — cannot miss, so it only records its start index; the stamps
// are applied later, oldest first, before any access that could miss
// and at the end of the run. That is exact: a fetch hit only rewrites
// its line's LRU stamp, and only a miss reads stamps (to choose its
// victim), so every miss sees the stamps the eager path would have
// left. Partial executions, and whole ones with a line not resident,
// take the eager path.
func (bs *buildState) fetch(x *sblock.BlockExec) {
	if !x.Whole {
		bs.runs = bs.lineRuns(bs.runs[:0], x.FetchPA, x.Count)
		bs.warmFetch(bs.runs, x.InstIdx0)
		return
	}
	if x.ID >= len(bs.blocks) {
		bs.blocks = append(bs.blocks, make([]blockFetch, x.ID+1-len(bs.blocks))...)
	}
	bf := &bs.blocks[x.ID]
	if bf.runs == nil {
		bf.runs = bs.lineRuns(nil, x.FetchPA, x.Count)
	}
	if bf.epoch != bs.icEpoch && bs.resident(bf.runs) {
		bf.epoch = bs.icEpoch
	}
	if bf.epoch != bs.icEpoch {
		bs.fetchEager++
		bs.warmFetch(bf.runs, x.InstIdx0)
		return
	}
	bs.fetchDeferred++
	if !bf.pending {
		bf.pending = true
		bs.pending = append(bs.pending, x.ID)
	}
	bf.start = x.InstIdx0
}

// lineRuns appends the line-runs of count instructions fetched from pa
// onward.
func (bs *buildState) lineRuns(dst []fetchRun, pa, count uint64) []fetchRun {
	line := uint64(bs.ic.BlockBytes())
	for j := uint64(0); j < count; {
		end := j + (line-(pa+isa.InstBytes*j)%line)/isa.InstBytes
		if end == j {
			end = j + 1
		}
		if end > count {
			end = count
		}
		dst = append(dst, fetchRun{pa: pa + isa.InstBytes*(end-1), off: end - 1})
		j = end
	}
	return dst
}

// resident reports whether every run's line is in the I-cache.
func (bs *buildState) resident(runs []fetchRun) bool {
	for _, r := range runs {
		if !bs.ic.Probe(r.pa) {
			return false
		}
	}
	return true
}

// warmFetch is the eager path: it applies the deferred stamps, then
// warms each run of an execution starting at instruction index i0,
// opening a new epoch on every miss.
func (bs *buildState) warmFetch(runs []fetchRun, i0 uint64) {
	bs.applyDeferred()
	for _, r := range runs {
		if !bs.ic.Probe(r.pa) {
			bs.icEpoch++
		}
		bs.ic.WarmAccess(r.pa, false, bs.stamp(i0+r.off))
	}
}

// applyDeferred applies every deferred block's latest stamps, oldest
// first. Each block needs only its latest execution: stamps grow with
// the instruction index, so a line's final stamp is its last hit's,
// and executions never overlap, so ordering blocks by latest start
// orders every shared line's hits.
func (bs *buildState) applyDeferred() {
	slices.SortFunc(bs.pending, func(a, b int) int {
		return cmp.Compare(bs.blocks[a].start, bs.blocks[b].start)
	})
	for _, id := range bs.pending {
		bf := &bs.blocks[id]
		for _, r := range bf.runs {
			bs.ic.WarmAccess(r.pa, false, bs.stamp(bf.start+r.off))
		}
		bf.pending = false
	}
	bs.pending = bs.pending[:0]
}

// snapshot assembles the checkpoint from the warmed state. The
// checkpoint takes the functional machine's frames over, leaving its
// memory empty: the machine is done, and nothing writes those frames
// again.
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
	// cap it to the most recent warmCap pages.
	warmCap := cfg.warmCap
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
