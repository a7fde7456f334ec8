package cpu

import (
	"hbat/internal/stats"
)

// coreMetrics holds the pipeline's handles into the machine's metrics
// registry. The aggregate counters of cpu.Stats answer "how much"; the
// registry answers "how distributed" (translation-latency and queue-
// depth histograms) and records event classes Stats never separated
// (replay causes, fetch-stall causes). Behavior tests assert on these
// instead of only final IPC.
type coreMetrics struct {
	reg *stats.Registry

	// Distributions, observed live.
	transExtra *stats.Histogram // extra translation latency per TLB hit
	queueDepth *stats.Histogram // TLB-port rejections per cycle (port queue depth)
	robOccup   *stats.Histogram // ROB occupancy per cycle

	// Replay causes: a memory op in sMemReq that could not finish this
	// cycle and will re-request.
	replayTLBNoPort  *stats.Counter
	replayCachePort  *stats.Counter
	replayStoreWait  *stats.Counter
	commitStoreRetry *stats.Counter

	// Squash events.
	squashRecoveries *stats.Counter
	squashedInsts    *stats.Counter

	// Fetch-stall cycles, split by cause (cpu.Stats lumps them).
	stallRedirect  *stats.Counter
	stallICache    *stats.Counter
	stallITLB      *stats.Counter
	stallQueueFull *stats.Counter

	// Scratch: data-side NoPort rejections seen this cycle.
	noPortThisCycle int64

	// occupancyN[v] and depthN[v] count the cycles with ROB occupancy
	// v and with v NoPort rejections: a per-cycle increment where
	// Observe would search the buckets. foldCycleCounts moves them into
	// robOccup and queueDepth. Both span [0, ROBSize]: the memory stage
	// visits each ROB entry at most once a cycle, and each visit is
	// rejected at most once.
	occupancyN, depthN []uint64
	cycleN             []uint64 // backs both
}

// fetch-stall causes (machine.fetchStallCause).
const (
	stallNone uint8 = iota
	stallRedirect
	stallICacheMiss
	stallITLBMiss
)

// newCoreMetrics registers the pipeline's metrics in a new registry.
// counts backs occupancyN and depthN, robSize+1 each; it is reused when
// it has that length and allocated otherwise.
func newCoreMetrics(robSize int, counts []uint64) coreMetrics {
	if len(counts) == 2*(robSize+1) {
		clear(counts)
	} else {
		counts = make([]uint64, 2*(robSize+1))
	}
	reg := stats.NewRegistry()
	return coreMetrics{
		reg:        reg,
		occupancyN: counts[:robSize+1],
		depthN:     counts[robSize+1:],
		cycleN:     counts,

		transExtra: reg.Histogram("tlb.translate_extra_cycles", []int64{0, 1, 2, 3, 4, 7, 15, 31}),
		queueDepth: reg.Histogram("tlb.port_queue_depth", []int64{0, 1, 2, 3, 4, 7, 15}),
		robOccup:   reg.Histogram("rob.occupancy", []int64{0, 8, 16, 24, 32, 40, 48, 56, 63}),

		replayTLBNoPort:  reg.Counter("cpu.replay_tlb_noport"),
		replayCachePort:  reg.Counter("cpu.replay_dcache_noport"),
		replayStoreWait:  reg.Counter("cpu.replay_store_forward_wait"),
		commitStoreRetry: reg.Counter("commit.store_port_retries"),

		squashRecoveries: reg.Counter("cpu.squash_recoveries"),
		squashedInsts:    reg.Counter("cpu.squash_insts"),

		stallRedirect:  reg.Counter("fetch.stall_redirect_cycles"),
		stallICache:    reg.Counter("fetch.stall_icache_cycles"),
		stallITLB:      reg.Counter("fetch.stall_itlb_cycles"),
		stallQueueFull: reg.Counter("fetch.stall_queue_full_cycles"),
	}
}

// Metrics returns the machine's metrics registry (populated during Run;
// aggregate mirrors and the per-cycle distributions are synced when Run
// returns).
func (m *Machine) Metrics() *stats.Registry { return m.metrics.reg }

// observeCycle records the per-cycle gauges. Called once per tick after
// the memory stage, so the queue-depth sample reflects this cycle's
// completed port arbitration. The interval sampler and progress
// heartbeat piggyback here (both nil/off by default).
func (m *Machine) observeCycle() {
	m.metrics.occupancyN[m.rob.count]++
	m.metrics.depthN[m.metrics.noPortThisCycle]++
	if m.interval != nil {
		m.intervalNoPort += m.metrics.noPortThisCycle
		if m.cycle-m.intervalPrev.cycle >= m.interval.Every() {
			m.sampleInterval()
		}
	}
	m.metrics.noPortThisCycle = 0
	if m.progress != nil && m.cycle%m.progressEvery == 0 {
		m.progress(m.cycle, m.stats.Committed)
	}
}

// countFetchStall attributes one stalled fetch cycle to its cause.
func (m *Machine) countFetchStall() {
	switch m.fetchStallCause {
	case stallRedirect:
		m.metrics.stallRedirect.Inc()
	case stallICacheMiss:
		m.metrics.stallICache.Inc()
	case stallITLBMiss:
		m.metrics.stallITLB.Inc()
	}
}

// syncAggregateMetrics mirrors the end-of-run aggregates (cpu.Stats,
// the translation device's tlb.Stats, and both caches) into the
// registry so one snapshot is a self-contained export.
func (m *Machine) syncAggregateMetrics() {
	m.metrics.foldCycleCounts()
	reg := m.metrics.reg
	reg.Counter("commit.insts").Set(m.stats.Committed)
	reg.Counter("commit.loads").Set(m.stats.CommittedLoads)
	reg.Counter("commit.stores").Set(m.stats.CommittedStores)
	reg.Counter("commit.branches").Set(m.stats.CommittedBranches)
	reg.Counter("cpu.cycles").Set(uint64(m.stats.Cycles))
	reg.Counter("cpu.issued").Set(m.stats.Issued)
	reg.Counter("cpu.fetched").Set(m.stats.Fetched)
	reg.Counter("cpu.context_flushes").Set(m.stats.ContextFlushes)

	reg.Counter("dispatch.stall_tlb_miss_cycles").Set(uint64(m.stats.DispatchTLBStalls))
	reg.Counter("dispatch.stall_rob_full_cycles").Set(uint64(m.stats.DispatchROBFull))
	reg.Counter("dispatch.stall_lsq_full_cycles").Set(uint64(m.stats.DispatchLSQFull))
	reg.Counter("dispatch.stall_empty_cycles").Set(uint64(m.stats.DispatchEmptyCycles))

	ts := m.DTLB.Stats()
	reg.Counter("tlb.lookups").Set(ts.Lookups)
	reg.Counter("tlb.hits").Set(ts.Hits)
	reg.Counter("tlb.misses").Set(ts.Misses)
	reg.Counter("tlb.noport").Set(ts.NoPorts)
	reg.Counter("tlb.piggyback_hits").Set(ts.Piggybacks)
	reg.Counter("tlb.shield_hits").Set(ts.ShieldHits)
	reg.Counter("tlb.shield_misses").Set(ts.ShieldMisses)
	reg.Counter("tlb.queue_cycles").Set(ts.QueueCycles)
	reg.Counter("tlb.status_writes").Set(ts.StatusWrites)
	reg.Counter("tlb.walks").Set(ts.Fills)
	reg.Counter("tlb.walk_cycles").Set(uint64(m.stats.TLBWalkCycles))

	for name, cs := range map[string]*struct {
		hits, misses, portStalls, writebacks uint64
	}{
		"dcache": {m.dcache.Stats().Hits, m.dcache.Stats().Misses, m.dcache.Stats().PortStalls, m.dcache.Stats().Writebacks},
		"icache": {m.icache.Stats().Hits, m.icache.Stats().Misses, m.icache.Stats().PortStalls, m.icache.Stats().Writebacks},
	} {
		reg.Counter(name + ".hits").Set(cs.hits)
		reg.Counter(name + ".misses").Set(cs.misses)
		reg.Counter(name + ".port_stalls").Set(cs.portStalls)
		reg.Counter(name + ".writebacks").Set(cs.writebacks)
	}
}

// foldCycleCounts moves the per-value cycle counts into their
// histograms and zeroes them, so a second fold adds only what came
// since the first.
func (c *coreMetrics) foldCycleCounts() {
	for v, n := range c.occupancyN {
		c.robOccup.ObserveN(int64(v), n)
	}
	for v, n := range c.depthN {
		c.queueDepth.ObserveN(int64(v), n)
	}
	clear(c.occupancyN)
	clear(c.depthN)
}
