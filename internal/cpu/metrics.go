package cpu

import (
	"slices"
	"strings"

	"hbat/internal/cache"
	"hbat/internal/stats"
	"hbat/internal/tlb"
)

// The bucket upper bounds of Stats' three distributions.
var (
	transExtraBounds   = []int64{0, 1, 2, 3, 4, 7, 15, 31}
	queueDepthBounds   = []int64{0, 1, 2, 3, 4, 7, 15}
	robOccupancyBounds = []int64{0, 8, 16, 24, 32, 40, 48, 56, 63}
)

// Fetch-stall causes (machine.fetchStallCause), indices of
// Stats.FetchStalls.
const (
	stallNone uint8 = iota
	stallRedirect
	stallICacheMiss
	numStallCauses
)

// cycleCounts are the per-cycle samples of Stats.ROBOccupancy and
// Stats.QueueDepth, counted per value: occupancyN[v] and depthN[v]
// count the cycles with ROB occupancy v and with v port rejections, a
// per-cycle increment where Observe would search the buckets, and fold
// moves them into the distributions. Both span [0, ROBSize]: the memory
// stage visits each ROB entry at most once a cycle, and each visit is
// rejected at most once. A released machine keeps them, and the next
// run zeroes them (reset).
type cycleCounts struct {
	occupancyN, depthN []uint64
	backing            []uint64
	// retries is Stats.TLBRetries when the cycle began: the cycle's
	// port rejections are what it has grown since.
	retries uint64
}

// reset zeroes the counts, sized for a robSize-entry ROB, reusing them
// when they fit.
func (c *cycleCounts) reset(robSize int) {
	if len(c.backing) == 2*(robSize+1) {
		clear(c.backing)
	} else {
		c.backing = make([]uint64, 2*(robSize+1))
	}
	c.occupancyN, c.depthN = c.backing[:robSize+1], c.backing[robSize+1:]
	c.retries = 0
}

// fold moves the per-value counts into s's distributions and zeroes
// them, so a second fold adds only what came since the first.
func (c *cycleCounts) fold(s *Stats) {
	for v, n := range c.occupancyN {
		s.ROBOccupancy.ObserveN(robOccupancyBounds, int64(v), n)
	}
	for v, n := range c.depthN {
		s.QueueDepth.ObserveN(queueDepthBounds, int64(v), n)
	}
	clear(c.backing)
}

// RenderMetrics renders a run's metrics export from its Stats and its
// translation device's tlb.Stats, under the names the export has always
// given them, sorted by name.
func RenderMetrics(s *Stats, t *tlb.Stats) stats.Snapshot {
	out := make(stats.Snapshot, 0, 43) // the 43 metrics below
	counter := func(name string, v uint64) {
		out = append(out, stats.Metric{Name: name, Kind: "counter", Value: v})
	}
	out = append(out,
		s.TransExtra.Metric("tlb.translate_extra_cycles", transExtraBounds),
		s.QueueDepth.Metric("tlb.port_queue_depth", queueDepthBounds),
		s.ROBOccupancy.Metric("rob.occupancy", robOccupancyBounds))

	counter("commit.insts", s.Committed)
	counter("commit.loads", s.CommittedLoads)
	counter("commit.stores", s.CommittedStores)
	counter("commit.branches", s.CommittedBranches)
	counter("commit.store_port_retries", s.CommitStoreRetries)
	counter("cpu.cycles", uint64(s.Cycles))
	counter("cpu.issued", s.Issued)
	counter("cpu.fetched", s.Fetched)
	counter("cpu.context_flushes", s.ContextFlushes)
	counter("cpu.replay_tlb_noport", s.TLBRetries)
	counter("cpu.replay_dcache_noport", s.DCacheRetries)
	counter("cpu.replay_store_forward_wait", s.StoreWaits)
	counter("cpu.squash_recoveries", s.SquashRecoveries)
	counter("cpu.squash_insts", s.Squashed)

	counter("fetch.stall_redirect_cycles", uint64(s.FetchStalls[stallRedirect]))
	counter("fetch.stall_icache_cycles", uint64(s.FetchStalls[stallICacheMiss]))
	counter("fetch.stall_queue_full_cycles", uint64(s.FetchQueueFull))
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
	}{{"dcache", &s.DCache}, {"icache", &s.ICache}} {
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
	c := &m.samples
	c.occupancyN[m.rob.count]++
	c.depthN[m.stats.TLBRetries-c.retries]++
	c.retries = m.stats.TLBRetries
	if m.interval != nil && m.cycle-m.intervalPrev.cycle >= m.interval.Every() {
		m.sampleInterval()
	}
	if m.progress != nil && m.cycle%m.progressEvery == 0 {
		m.progress(m.cycle, m.stats.Committed)
	}
}
