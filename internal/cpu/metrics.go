package cpu

import (
	"slices"
	"strings"

	"hbat/internal/cache"
	"hbat/internal/stats"
	"hbat/internal/tlb"
)

// coreMetrics holds the pipeline's handles into the machine's metrics
// registry. The aggregate counters of cpu.Stats answer "how much"; the
// registry answers "how distributed" (translation-latency and queue-
// depth histograms) and records event classes Stats never separated
// (replay causes, fetch-stall causes). A released machine keeps the
// registry and its handles, and the next run zeroes them (reset).
type coreMetrics struct {
	reg *stats.Registry

	// count[c] is live counter c and dist[d] live distribution d.
	count [numCounts]*stats.Counter
	dist  [numDists]*stats.Histogram

	// Scratch: data-side NoPort rejections seen this cycle.
	noPortThisCycle int64

	// occupancyN[v] and depthN[v] count the cycles with ROB occupancy
	// v and with v NoPort rejections: a per-cycle increment where
	// Observe would search the buckets. foldCycleCounts moves them into
	// the ROB-occupancy and queue-depth histograms. Both span [0,
	// ROBSize]: the memory stage visits each ROB entry at most once a
	// cycle, and each visit is rejected at most once.
	occupancyN, depthN []uint64
	cycleN             []uint64 // backs both
}

// The live counters, indices of coreMetrics.count and Observed.Counts.
const (
	// Replay causes: a memory op in sMemReq that could not finish this
	// cycle and will re-request.
	cReplayTLBNoPort = iota
	cReplayDCacheNoPort
	cReplayStoreWait
	cCommitStoreRetry
	// Squash events.
	cSquashRecoveries
	cSquashedInsts
	// Fetch-stall cycles, split by cause (cpu.Stats lumps them).
	cStallRedirect
	cStallICache
	cStallITLB
	cStallQueueFull
	numCounts
)

// countNames are the live counters' exported names.
var countNames = [numCounts]string{
	cReplayTLBNoPort:    "cpu.replay_tlb_noport",
	cReplayDCacheNoPort: "cpu.replay_dcache_noport",
	cReplayStoreWait:    "cpu.replay_store_forward_wait",
	cCommitStoreRetry:   "commit.store_port_retries",
	cSquashRecoveries:   "cpu.squash_recoveries",
	cSquashedInsts:      "cpu.squash_insts",
	cStallRedirect:      "fetch.stall_redirect_cycles",
	cStallICache:        "fetch.stall_icache_cycles",
	cStallITLB:          "fetch.stall_itlb_cycles",
	cStallQueueFull:     "fetch.stall_queue_full_cycles",
}

// The live distributions, indices of coreMetrics.dist and
// Observed.Dists.
const (
	dTransExtra   = iota // extra translation latency per TLB hit
	dQueueDepth          // TLB-port rejections per cycle (port queue depth)
	dROBOccupancy        // ROB occupancy per cycle
	numDists
)

// distDefs are the live distributions' exported names and bucket
// bounds.
var distDefs = [numDists]struct {
	name   string
	bounds []int64
}{
	dTransExtra:   {"tlb.translate_extra_cycles", []int64{0, 1, 2, 3, 4, 7, 15, 31}},
	dQueueDepth:   {"tlb.port_queue_depth", []int64{0, 1, 2, 3, 4, 7, 15}},
	dROBOccupancy: {"rob.occupancy", []int64{0, 8, 16, 24, 32, 40, 48, 56, 63}},
}

// Observed is what a run counted live beyond Stats and its translation
// device's tlb.Stats: the ten event counters and three distributions of
// the machine's registry, and both caches' counters. It holds them by
// value, so a caller copies it out of the machine (Machine.Observed)
// before Release and renders the metrics export from it
// (RenderMetrics) only where the export is read.
type Observed struct {
	Counts         [numCounts]uint64
	Dists          [numDists]Dist
	ICache, DCache cache.Stats
}

// Dist is one distribution by value: its bucket counts as
// stats.Histogram.Buckets returns them, overflow last (the array fits
// the widest, ROB occupancy's ten), and its samples' sum and maximum.
type Dist struct {
	Buckets  [10]uint64
	Sum, Max int64
}

// fetch-stall causes (machine.fetchStallCause).
const (
	stallNone uint8 = iota
	stallRedirect
	stallICacheMiss
	stallITLBMiss
)

// reset zeroes the registry's values, registering the pipeline's
// metrics in a new one on a machine's first run, and sizes the
// per-cycle counts for a robSize-entry ROB, reusing them when they fit.
func (c *coreMetrics) reset(robSize int) {
	if c.reg == nil {
		c.reg = stats.NewRegistry()
		for i, name := range countNames {
			c.count[i] = c.reg.Counter(name)
		}
		for i, d := range distDefs {
			c.dist[i] = c.reg.Histogram(d.name, d.bounds)
		}
	} else {
		c.reg.Reset()
	}
	if len(c.cycleN) == 2*(robSize+1) {
		clear(c.cycleN)
	} else {
		c.cycleN = make([]uint64, 2*(robSize+1))
	}
	c.occupancyN, c.depthN = c.cycleN[:robSize+1], c.cycleN[robSize+1:]
	c.noPortThisCycle = 0
}

// Observed copies out the run's live counts (valid after Run, before
// Release).
func (m *Machine) Observed() Observed {
	var o Observed
	for i, c := range m.metrics.count {
		o.Counts[i] = c.Value()
	}
	for i, h := range m.metrics.dist {
		_, counts := h.Buckets()
		d := &o.Dists[i]
		copy(d.Buckets[:], counts)
		d.Sum, d.Max = h.Sum(), h.Max()
	}
	o.ICache, o.DCache = *m.icache.Stats(), *m.dcache.Stats()
	return o
}

// RenderMetrics renders a run's metrics export: the live counts and
// distributions of o, and the aggregates of s, t and both caches under
// the names the export has always given them, sorted by name.
func RenderMetrics(s *Stats, t *tlb.Stats, o *Observed) stats.Snapshot {
	out := make(stats.Snapshot, 0, numCounts+numDists+31) // 31: the aggregates below
	counter := func(name string, v uint64) {
		out = append(out, stats.Metric{Name: name, Kind: "counter", Value: v})
	}
	for i, name := range countNames {
		counter(name, o.Counts[i])
	}
	for i, d := range distDefs {
		od := &o.Dists[i]
		out = append(out, stats.HistogramMetric(d.name, d.bounds, od.Buckets[:len(d.bounds)+1], od.Sum, od.Max))
	}

	counter("commit.insts", s.Committed)
	counter("commit.loads", s.CommittedLoads)
	counter("commit.stores", s.CommittedStores)
	counter("commit.branches", s.CommittedBranches)
	counter("cpu.cycles", uint64(s.Cycles))
	counter("cpu.issued", s.Issued)
	counter("cpu.fetched", s.Fetched)
	counter("cpu.context_flushes", s.ContextFlushes)

	counter("dispatch.stall_tlb_miss_cycles", uint64(s.DispatchTLBStalls))
	counter("dispatch.stall_rob_full_cycles", uint64(s.DispatchROBFull))
	counter("dispatch.stall_lsq_full_cycles", uint64(s.DispatchLSQFull))
	counter("dispatch.stall_empty_cycles", uint64(s.DispatchEmptyCycles))

	counter("tlb.lookups", t.Lookups)
	counter("tlb.hits", t.Hits)
	counter("tlb.misses", t.Misses)
	counter("tlb.noport", t.NoPorts)
	counter("tlb.piggyback_hits", t.Piggybacks)
	counter("tlb.shield_hits", t.ShieldHits)
	counter("tlb.shield_misses", t.ShieldMisses)
	counter("tlb.queue_cycles", t.QueueCycles)
	counter("tlb.status_writes", t.StatusWrites)
	counter("tlb.walks", t.Fills)
	counter("tlb.walk_cycles", uint64(s.TLBWalkCycles))

	for _, c := range []struct {
		name string
		s    *cache.Stats
	}{{"dcache", &o.DCache}, {"icache", &o.ICache}} {
		counter(c.name+".hits", c.s.Hits)
		counter(c.name+".misses", c.s.Misses)
		counter(c.name+".port_stalls", c.s.PortStalls)
		counter(c.name+".writebacks", c.s.Writebacks)
	}
	slices.SortFunc(out, func(a, b stats.Metric) int { return strings.Compare(a.Name, b.Name) })
	return out
}

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
		m.metrics.count[cStallRedirect].Inc()
	case stallICacheMiss:
		m.metrics.count[cStallICache].Inc()
	case stallITLBMiss:
		m.metrics.count[cStallITLB].Inc()
	}
}

// foldCycleCounts moves the per-value cycle counts into their
// histograms and zeroes them, so a second fold adds only what came
// since the first.
func (c *coreMetrics) foldCycleCounts() {
	for v, n := range c.occupancyN {
		c.dist[dROBOccupancy].ObserveN(int64(v), n)
	}
	for v, n := range c.depthN {
		c.dist[dQueueDepth].ObserveN(int64(v), n)
	}
	clear(c.occupancyN)
	clear(c.depthN)
}
