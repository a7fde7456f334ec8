package cpu

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hbat/internal/bpred"
	"hbat/internal/cache"
	"hbat/internal/isa"
	"hbat/internal/mem"
	"hbat/internal/pipetrace"
	"hbat/internal/prog"
	"hbat/internal/stats"
	"hbat/internal/tlb"
	"hbat/internal/vm"
)

// ErrDeadlock reports that the pipeline made no forward progress for an
// implausibly long time — always a simulator or workload bug.
var ErrDeadlock = errors.New("cpu: no commit progress (deadlock)")

type fetchedInst struct {
	pc         uint64
	inst       *isa.Inst
	predNextPC uint64
	predTaken  bool
	ghrSnap    uint64
	fetchCycle int64
}

// Machine is one simulated processor bound to a program and a TLB
// design. Create it with New, run it with Run, and read Stats/TLB
// statistics afterwards.
type Machine struct {
	cfg  Config
	prog *prog.Program
	dec  []isa.Decoded // prog.Code predecoded, parallel to it

	// Architected and memory state.
	AS   *vm.AddressSpace
	Mem  *mem.Memory
	regs [isa.NumRegs]uint64

	// Translation and memory hierarchy.
	DTLB    tlb.Device
	tracker tlb.RegisterTracker
	icache  *cache.Cache
	dcache  *cache.Cache
	pred    *bpred.Predictor

	// counted is DTLB when every request to it takes a real port (a
	// banked TLB with no piggyback ports, reached by every memory
	// request: no virtual-address cache in front); memExecute then
	// counts the requests that find theirs taken without making them.
	counted *tlb.Banked

	// Pipeline state.
	rob        *rob
	rename     [isa.NumRegs]int32
	renameSlot [isa.NumRegs]int8
	lsqCount   int
	seq        int64
	cycle      int64

	fetchPC         uint64
	fetchVPN        uint64 // last code page fetchPaddr translated (^0: none)
	fetchPFN        uint64
	fetchStallUntil int64
	fetchStallCause uint8         // why fetchStallUntil was last raised (stall* constants)
	fetchQ          []fetchedInst // ring: fetchQCount entries from fetchQHead
	fetchQHead      int
	fetchQCount     int
	haltPending     bool

	// Per-cycle functional unit budgets and unit timelines.
	intALUUsed, ldstUsed, fpAddUsed int
	intMDFree, fpMDFree             int64

	tlbMissOutstanding int
	lastCommitCycle    int64
	nextFlushAt        uint64

	pageBits uint
	pageMask uint64

	halted bool
	err    error
	stats  Stats

	// lockstep is the golden-model checker (nil unless Config.Lockstep).
	lockstep *lockstep
	// testCommitHook, when non-nil, observes (and may corrupt) each
	// entry at commit just before the lockstep check — the fault-
	// injection point negative tests use to prove the checker catches
	// commit-stage bugs. Tests set it directly; it is never set in
	// production paths.
	testCommitHook func(*Machine, *robEntry)

	samples cycleCounts

	// tracer, when non-nil, records cycle-accurate pipeline events
	// (nil by default: every emit site is guarded by a nil check, so
	// the hot path pays one predictable branch and zero allocations).
	tracer *pipetrace.Recorder

	// interval, when non-nil, accumulates the periodic time-series
	// samples configured by EnableIntervalSampling.
	interval     *stats.IntervalSeries
	intervalPrev intervalBase

	// progress, when non-nil, is called every progressEvery cycles
	// (long-run heartbeat; see SetProgress).
	progress      func(cycle int64, committed uint64)
	progressEvery int64

	// cancel is the run's context (SetCancel), polled every 4096 cycles.
	cancel context.Context

	// devices holds, by mnemonic, the translation device of each Table
	// 2 design this machine has run (see NewWithDesign).
	devices map[string]tlb.Device
}

// intervalBase snapshots the counters an interval sample differences
// against.
type intervalBase struct {
	cycle     int64
	committed uint64
	lookups   uint64
	misses    uint64
	retries   uint64
}

// New builds a machine running p with the given TLB design factory.
// The factory receives the machine's address space (devices walk it on
// fills); use tlb.NewFromSpec mnemonics via NewWithDesign for the
// standard Table 2 designs.
func New(p *prog.Program, cfg Config, buildTLB func(*vm.AddressSpace) tlb.Device) (*Machine, error) {
	return build(p, cfg, func(m *Machine) tlb.Device { return buildTLB(m.AS) })
}

// NewWithDesign builds a machine using a Table 2 design mnemonic. A
// machine that has run the design before resets its device for this
// run instead of building one.
func NewWithDesign(p *prog.Program, cfg Config, design string) (*Machine, error) {
	spec, err := tlb.LookupSpec(design)
	if err != nil {
		return nil, err
	}
	return build(p, cfg, func(m *Machine) tlb.Device { return m.device(spec, cfg.Seed) })
}

// device returns spec's translation device over m.AS: the one this
// machine kept from an earlier run of the design, reset, or a new one
// it keeps from now on.
func (m *Machine) device(spec tlb.Spec, seed uint64) tlb.Device {
	if d := m.devices[spec.Mnemonic]; d != nil {
		d.(tlb.Resetter).Reset(m.AS, seed)
		return d
	}
	d := spec.Build(m.AS, seed)
	if m.devices == nil {
		m.devices = make(map[string]tlb.Device)
	}
	m.devices[spec.Mnemonic] = d
	return d
}

// build makes a machine running p whose translation device dtlb
// returns, called once the machine's address space is set up.
func build(p *prog.Program, cfg Config, dtlb func(*Machine) tlb.Device) (*Machine, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	// Start from a released machine when there is one: its memory,
	// page table, tag arrays, predictor tables, ROB, fetch ring and
	// per-cycle counts are reset and kept where the configuration
	// matches, and everything else is built here as for a new machine.
	m, _ := released.Get().(*Machine)
	if m == nil {
		m = &Machine{Mem: mem.New(), AS: vm.NewAddressSpace(cfg.PageSize)}
	} else {
		m.AS.Reset(cfg.PageSize)
	}
	*m = Machine{
		cfg:     cfg,
		prog:    p,
		AS:      m.AS,
		Mem:     m.Mem,
		devices: m.devices,
		icache:  cache.Reuse(m.icache, cfg.ICache),
		dcache:  cache.Reuse(m.dcache, cfg.DCache),
		pred:    bpred.Reuse(m.pred, cfg.Branch),
		rob:     resetROB(m.rob, cfg.ROBSize),
		fetchQ:  m.fetchQ,
		samples: m.samples,
	}
	m.samples.reset(cfg.ROBSize)
	if len(m.fetchQ) != cfg.FetchQueue {
		m.fetchQ = make([]fetchedInst, cfg.FetchQueue)
	}
	if m.dec = p.Decoded; len(m.dec) != len(p.Code) {
		m.dec = isa.DecodeAll(p.Code)
	}
	if cfg.Lockstep {
		ls, err := newLockstep(p, cfg.PageSize)
		if err != nil {
			return nil, fmt.Errorf("cpu: building lockstep reference: %w", err)
		}
		m.lockstep = ls
	}
	m.pageBits = m.AS.PageBits()
	m.pageMask = cfg.PageSize - 1
	for _, r := range p.Regions {
		m.AS.AddRegion(r)
	}
	m.DTLB = dtlb(m)
	m.tracker, _ = m.DTLB.(tlb.RegisterTracker)
	// Busy predicts NoPort exactly only without piggyback ports, which
	// serve requests Busy turns away.
	if d, ok := m.DTLB.(*tlb.Banked); ok && d.PiggybackPorts() == 0 && !cfg.VirtualCache {
		m.counted = d
	}
	for reg, v := range p.InitRegs {
		m.regs[reg] = v
	}
	for i := range m.rename {
		m.rename[i] = -1
	}
	m.fetchPC = p.Entry
	m.fetchVPN = ^uint64(0)
	m.nextFlushAt = cfg.FlushTLBEvery
	// A fast-forwarding machine replaces its page table and physical
	// memory with the checkpoint's before the first cycle
	// (restoreCheckpoint), so data loaded here would be thrown away.
	if cfg.FastForward == 0 {
		if err := p.Load(m.AS, m.Mem); err != nil {
			return nil, fmt.Errorf("cpu: %w", err)
		}
	}
	// Loading the initial images is the loader's work, not the
	// program's: clear the status bits so the simulated machine's own
	// first references and writes set them (and generate the paper's
	// status write-through traffic).
	m.AS.ClearStatus()
	return m, nil
}

// released holds machines handed back by Release for New to start
// from. The pool is emptied by the garbage collector, so what idle
// machines keep is bounded by the machines in use between two
// collections, not by how many have ever run.
var released sync.Pool

// Release hands the machine back for a later New to reuse. Call it once
// the run's results are copied out: Stats() and DTLB.Stats() by value,
// and Tracer() and Intervals(), which the machine lets go of. The
// machine must not be used afterwards.
//
// A released machine keeps what has the same shape from run to run,
// and the next New resets it instead of allocating it: up to
// mem.KeepFrames of the frames its memory owned privately (never one
// still shared with a checkpoint), the address space with its page
// table's map and entries, the translation device of every Table 2
// design it has run (NewWithDesign resets the one its design names;
// a device from New's factory is dropped), and the cache tag arrays,
// predictor tables, ROB, fetch ring and per-cycle counts, reused when
// the next configuration matches. It drops the program, checkpoint,
// lockstep reference, tracer, interval series, progress
// callback and context, so a pooled machine pins nothing of the run
// beyond its own page table's entries, which the next New clears.
func (m *Machine) Release() {
	m.Mem.Reset()
	m.rob.reset()
	clear(m.fetchQ)
	*m = Machine{
		AS:      m.AS,
		Mem:     m.Mem,
		devices: m.devices,
		icache:  m.icache,
		dcache:  m.dcache,
		pred:    m.pred,
		rob:     m.rob,
		fetchQ:  m.fetchQ,
		samples: m.samples,
	}
	released.Put(m)
}

// resetROB returns r (which Release emptied) when it has size entries,
// and a new ROB otherwise.
func resetROB(r *rob, size int) *rob {
	if r == nil || len(r.entries) != size {
		return newROB(size)
	}
	return r
}

func (m *Machine) readMem(paddr uint64, width uint8) uint64 {
	switch width {
	case 1:
		return uint64(m.Mem.ByteAt(paddr))
	case 2:
		return uint64(m.Mem.Read16(paddr))
	case 4:
		return uint64(m.Mem.Read32(paddr))
	default:
		return m.Mem.Read64(paddr)
	}
}

func (m *Machine) writeMem(paddr uint64, width uint8, v uint64) {
	switch width {
	case 1:
		m.Mem.SetByte(paddr, byte(v))
	case 2:
		m.Mem.Write16(paddr, uint16(v))
	case 4:
		m.Mem.Write32(paddr, uint32(v))
	default:
		m.Mem.Write64(paddr, v)
	}
}

// fetchPaddr translates an instruction address for I-cache indexing.
// Instruction fetch translation is outside the paper's scope (a
// single-ported instruction TLB suffices, Section 1), so it is modeled
// as free: the page table is consulted directly. Wrong-path addresses
// outside the text region index the cache by virtual address.
func (m *Machine) fetchPaddr(vaddr uint64) uint64 {
	vpn := vaddr >> m.pageBits
	if vpn == m.fetchVPN {
		return m.fetchPFN<<m.pageBits | (vaddr & m.pageMask)
	}
	if pte, ok := m.AS.Probe(vpn); ok {
		// Fetch runs within one code page for long stretches, and a
		// mapped page keeps its frame, so remember the last one.
		m.fetchVPN, m.fetchPFN = vpn, pte.PFN
		return pte.PFN<<m.pageBits | (vaddr & m.pageMask)
	}
	pte, err := m.AS.Walk(vpn)
	if err != nil {
		return vaddr
	}
	return pte.PFN<<m.pageBits | (vaddr & m.pageMask)
}

// tick advances the machine one cycle. Stage order within a tick runs
// from the back of the pipeline forward so each instruction spends at
// least one cycle per stage.
func (m *Machine) tick() {
	m.cycle++
	m.DTLB.BeginCycle(m.cycle)
	m.dcache.BeginCycle(m.cycle)
	m.icache.BeginCycle(m.cycle)
	m.intALUUsed, m.ldstUsed, m.fpAddUsed = 0, 0, 0
	m.rob.wake(m.cycle)

	m.complete()
	m.commit()
	if m.halted || m.err != nil {
		m.observeCycle()
		return
	}
	if m.cfg.FlushTLBEvery > 0 && m.stats.Committed >= m.nextFlushAt {
		// Context switch: every cached translation dies (the paper's
		// multiprogramming scenario).
		m.DTLB.FlushAll()
		m.stats.ContextFlushes++
		m.nextFlushAt = m.stats.Committed + m.cfg.FlushTLBEvery
	}
	m.memExecute()
	m.issue()
	m.dispatch()
	m.fetch()
	m.observeCycle()

	if m.cycle-m.lastCommitCycle > 50000 {
		m.err = fmt.Errorf("%w at cycle %d (pc 0x%x, rob %d entries)",
			ErrDeadlock, m.cycle, m.fetchPC, m.rob.count)
	}
}

// Run simulates until the program halts, a limit is reached, the
// machine's context (SetCancel) is cancelled, or an error occurs. It
// returns nil on a clean halt or on reaching the committed-instruction
// budget, and the context's error when cancelled.
func (m *Machine) Run() error {
	// Two-phase mode: the checkpoint is restored before the first
	// simulated cycle.
	m.FastForward()
	for !m.halted && m.err == nil {
		if m.cfg.MaxInsts > 0 && m.stats.Committed >= m.cfg.MaxInsts {
			break
		}
		if m.cancel != nil && m.cycle&4095 == 0 {
			if err := m.cancel.Err(); err != nil {
				m.err = err
				break
			}
		}
		m.tick()
	}
	m.stats.Cycles = m.cycle
	m.stats.TLBWalks = m.DTLB.Stats().Fills
	if m.lockstep != nil {
		m.lockstepFinish()
	}
	if m.interval != nil && m.cycle > m.intervalPrev.cycle {
		m.sampleInterval() // flush the final partial interval
	}
	m.samples.fold(&m.stats)
	m.stats.ICache, m.stats.DCache = *m.icache.Stats(), *m.dcache.Stats()
	return m.err
}

// SetCancel arranges for Run to stop with ctx.Err() once ctx is
// cancelled, checked before the first cycle and every 4096 cycles
// after it (one mask), so an in-flight simulation is interrupted
// promptly. Call before Run; a nil ctx disables the check.
func (m *Machine) SetCancel(ctx context.Context) { m.cancel = ctx }

// SetTracer attaches a pipeline event recorder (nil detaches). With no
// tracer attached — the default — the pipeline's emit sites reduce to
// one nil check each.
func (m *Machine) SetTracer(r *pipetrace.Recorder) { m.tracer = r }

// Tracer returns the attached pipeline event recorder (nil when
// tracing is off).
func (m *Machine) Tracer() *pipetrace.Recorder { return m.tracer }

// EnableIntervalSampling arranges for a time-series sample every N
// cycles: committed IPC, TLB miss rate, ROB occupancy, and TLB-port
// queue depth over each interval. Call before Run; read the series
// with Intervals afterwards.
func (m *Machine) EnableIntervalSampling(every int64) {
	if every <= 0 {
		return
	}
	m.interval = stats.NewIntervalSeries(every,
		"cycle", "ipc", "tlb.miss_rate", "rob.occupancy", "tlb.port_queue_depth")
	m.intervalPrev = intervalBase{}
}

// Intervals returns the interval time series (nil unless
// EnableIntervalSampling was called).
func (m *Machine) Intervals() *stats.IntervalSeries { return m.interval }

// SetProgress installs a heartbeat callback invoked every `every`
// cycles during Run (both nil/0 disable it). The callback runs on the
// simulation goroutine; keep it cheap.
func (m *Machine) SetProgress(every int64, fn func(cycle int64, committed uint64)) {
	if every <= 0 || fn == nil {
		m.progress, m.progressEvery = nil, 0
		return
	}
	m.progress, m.progressEvery = fn, every
}

// sampleInterval appends one time-series row covering the cycles since
// the previous sample.
func (m *Machine) sampleInterval() {
	prev := &m.intervalPrev
	dCycles := m.cycle - prev.cycle
	if dCycles <= 0 {
		return
	}
	ts := m.DTLB.Stats()
	ipc := float64(m.stats.Committed-prev.committed) / float64(dCycles)
	missRate := 0.0
	if dLook := ts.Lookups - prev.lookups; dLook > 0 {
		missRate = float64(ts.Misses-prev.misses) / float64(dLook)
	}
	queueDepth := float64(m.stats.TLBRetries-prev.retries) / float64(dCycles)
	m.interval.Append(float64(m.cycle), ipc, missRate, float64(m.rob.count), queueDepth)
	*prev = intervalBase{cycle: m.cycle, committed: m.stats.Committed, lookups: ts.Lookups,
		misses: ts.Misses, retries: m.stats.TLBRetries}
}

// Stats returns the run's statistics (valid after Run).
func (m *Machine) Stats() *Stats { return &m.stats }

// ReadVirt reads virtual memory (for result assertions in tests).
func (m *Machine) ReadVirt(vaddr uint64, buf []byte) error {
	ps := m.AS.PageSize()
	for len(buf) > 0 {
		pa, err := m.AS.Translate(vaddr, vm.PermRead)
		if err != nil {
			return err
		}
		n := ps - m.AS.PageOffset(vaddr)
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		m.Mem.Read(pa, buf[:n])
		buf = buf[n:]
		vaddr += n
	}
	return nil
}
