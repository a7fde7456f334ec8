// Package cache implements the set-associative caches of the baseline
// machine (Table 1): 32 KB two-way instruction and data caches with
// 32-byte blocks and a 6-cycle miss latency. The data cache is
// four-ported, write-back, write-allocate, and non-blocking: a miss
// delays only the access that incurred it.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	Name        string
	SizeBytes   int
	Assoc       int
	BlockBytes  int
	MissLatency int64
	Ports       int // accesses per cycle (0 = unlimited)
	WriteBack   bool
}

// DefaultICache is the baseline instruction cache (Table 1).
func DefaultICache() Config {
	return Config{Name: "il1", SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 32, MissLatency: 6, Ports: 1}
}

// DefaultDCache is the baseline data cache (Table 1).
func DefaultDCache() Config {
	return Config{Name: "dl1", SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 32, MissLatency: 6, Ports: 4, WriteBack: true}
}

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	PortStalls uint64
}

// line is one way of a set, 16 bytes. tag is the full block address
// with the line's valid and dirty bits packed into its top two bits,
// which no block address reaches: blocks are at least 4 bytes, so a
// block address has at most 62 bits. used is the LRU stamp.
type line struct {
	tag  uint64
	used int64
}

const (
	validBit = 1 << 63
	dirtyBit = 1 << 62
	flagBits = validBit | dirtyBit
)

// Cache is a set-associative, LRU-replaced cache indexed by physical
// address. It models timing only; data values live in the simulator's
// physical memory.
type Cache struct {
	cfg       Config
	lines     []line // set-major: set s is lines[s*Assoc : (s+1)*Assoc]
	setMask   uint64
	blockBits uint
	stats     Stats
	portsUsed int
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.BlockBytes < 4 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: block size %d not a power of two of at least 4", cfg.Name, cfg.BlockBytes))
	}
	if cfg.Assoc <= 0 {
		panic(fmt.Sprintf("cache %s: invalid associativity %d", cfg.Name, cfg.Assoc))
	}
	nSets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Assoc)
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, nSets))
	}
	blockBits := uint(0)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		blockBits++
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, nSets*cfg.Assoc),
		setMask:   uint64(nSets - 1),
		blockBits: blockBits,
	}
}

// Reuse returns c reset when it was built from cfg, and a new cache
// otherwise (c may be nil).
func Reuse(c *Cache, cfg Config) *Cache {
	if c == nil || c.cfg != cfg {
		return New(cfg)
	}
	c.Reset()
	return c
}

// Reset returns the cache to the state New leaves it in: every line
// invalid, every counter zero. It keeps the tag array, so a machine that
// is built again with the same configuration allocates none.
func (c *Cache) Reset() {
	clear(c.lines)
	c.stats = Stats{}
	c.portsUsed = 0
}

// set returns the ways of the set block maps to.
func (c *Cache) set(block uint64) []line {
	i := int(block&c.setMask) * c.cfg.Assoc
	return c.lines[i : i+c.cfg.Assoc]
}

// BlockBytes returns the cache's block size.
func (c *Cache) BlockBytes() int { return c.cfg.BlockBytes }

// BeginCycle opens cycle now: every port is free again.
func (c *Cache) BeginCycle(now int64) {
	c.portsUsed = 0
}

// PortAvailable reports whether another access can start this cycle.
func (c *Cache) PortAvailable() bool {
	return c.cfg.Ports == 0 || c.portsUsed < c.cfg.Ports
}

// Access performs one timed access to physical address paddr at cycle
// now, claiming a port. It returns the additional latency beyond the
// pipeline's nominal access time: 0 on a hit, MissLatency on a miss.
// ok is false when no port was available (the caller must retry).
func (c *Cache) Access(paddr uint64, write bool, now int64) (extra int64, ok bool) {
	if !c.PortAvailable() {
		c.stats.PortStalls++
		return 0, false
	}
	c.portsUsed++
	return c.access(paddr, write, now), true
}

// AccessUnported performs a timed access without port accounting (used
// by the fetch stage, which arbitrates its own single port).
func (c *Cache) AccessUnported(paddr uint64, write bool, now int64) int64 {
	return c.access(paddr, write, now)
}

func (c *Cache) access(paddr uint64, write bool, now int64) int64 {
	return c.lookupAlloc(paddr, write, now, true)
}

// WarmAccess performs the same lookup-and-allocate state update as a
// timed access but records no statistics and claims no port. The
// functional warm-up phase uses it to pre-populate tag arrays without
// perturbing the measurement window's counters.
func (c *Cache) WarmAccess(paddr uint64, write bool, now int64) {
	c.lookupAlloc(paddr, write, now, false)
}

func (c *Cache) lookupAlloc(paddr uint64, write bool, now int64, count bool) int64 {
	block := paddr >> c.blockBits
	set := c.set(block)
	want := block | validBit // the full block address is the tag: simple and exact

	for i := range set {
		if set[i].tag&^dirtyBit == want {
			set[i].used = now
			if write && c.cfg.WriteBack {
				set[i].tag |= dirtyBit
			}
			if count {
				c.stats.Hits++
			}
			return 0
		}
	}
	if count {
		c.stats.Misses++
	}

	// Allocate (write-allocate on stores, standard allocate on loads).
	victim := 0
	for i := range set {
		if set[i].tag&validBit == 0 {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].tag&flagBits == flagBits && c.cfg.WriteBack {
		if count {
			c.stats.Writebacks++
		}
	}
	if write && c.cfg.WriteBack {
		want |= dirtyBit
	}
	set[victim] = line{tag: want, used: now}
	return c.cfg.MissLatency
}

// Probe reports whether paddr currently hits, without side effects.
func (c *Cache) Probe(paddr uint64) bool {
	block := paddr >> c.blockBits
	want := block | validBit
	for _, l := range c.set(block) {
		if l.tag&^dirtyBit == want {
			return true
		}
	}
	return false
}

// Flush invalidates every line (counting writebacks of dirty lines).
func (c *Cache) Flush() {
	for i := range c.lines {
		if c.lines[i].tag&flagBits == flagBits && c.cfg.WriteBack {
			c.stats.Writebacks++
		}
		c.lines[i] = line{}
	}
}

// Stats returns the cache's counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// LineState is the serializable image of one cache line. Used holds the
// warm-up recency stamp; warmed state uses negative stamps so every warm
// line is older than any measurement-window access (cycles start at 1).
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Used  int64
}

// State is the serializable tag/LRU image of a cache, set-major (set 0's
// ways first). Statistics are deliberately excluded: a restored cache
// starts its counters at zero.
type State struct {
	Sets  int
	Assoc int
	Lines []LineState
}

// ExportState captures the cache's tag array.
func (c *Cache) ExportState() State {
	st := State{Sets: int(c.setMask) + 1, Assoc: c.cfg.Assoc, Lines: make([]LineState, len(c.lines))}
	for i, l := range c.lines {
		st.Lines[i] = LineState{
			Tag:   l.tag &^ flagBits,
			Valid: l.tag&validBit != 0,
			Dirty: l.tag&dirtyBit != 0,
			Used:  l.used,
		}
	}
	return st
}

// ImportState restores a tag array captured by ExportState. It fails if
// the geometry does not match this cache's configuration, or if a tag
// reaches the bits a line keeps its flags in (no block address does, so
// such a state was not exported by a cache; it can arrive from a
// decoded checkpoint file).
func (c *Cache) ImportState(st State) error {
	if sets := int(c.setMask) + 1; st.Sets != sets || st.Assoc != c.cfg.Assoc {
		return fmt.Errorf("cache %s: state geometry %dx%d does not match %dx%d",
			c.cfg.Name, st.Sets, st.Assoc, sets, c.cfg.Assoc)
	}
	if len(st.Lines) != len(c.lines) {
		return fmt.Errorf("cache %s: state has %d lines, want %d",
			c.cfg.Name, len(st.Lines), len(c.lines))
	}
	for i, l := range st.Lines {
		if l.Tag&flagBits != 0 {
			return fmt.Errorf("cache %s: line %d tag %#x is not a block address", c.cfg.Name, i, l.Tag)
		}
	}
	for i, l := range st.Lines {
		tag := l.Tag
		if l.Valid {
			tag |= validBit
		}
		if l.Dirty {
			tag |= dirtyBit
		}
		c.lines[i] = line{tag: tag, used: l.Used}
	}
	return nil
}
