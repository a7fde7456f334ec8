package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "t", SizeBytes: 1024, Assoc: 2, BlockBytes: 32, MissLatency: 6, Ports: 2, WriteBack: true}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(small())
	c.BeginCycle(1)
	extra, ok := c.Access(0x1000, false, 1)
	if !ok || extra != 6 {
		t.Fatalf("cold access: extra %d ok %v", extra, ok)
	}
	extra, ok = c.Access(0x1008, false, 1) // same block
	if !ok || extra != 0 {
		t.Fatalf("same-block access: extra %d", extra)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPortLimit(t *testing.T) {
	c := New(small())
	c.BeginCycle(1)
	c.Access(0, false, 1)
	c.Access(32, false, 1)
	if _, ok := c.Access(64, false, 1); ok {
		t.Fatal("third access in a cycle succeeded on a 2-port cache")
	}
	if c.Stats().PortStalls != 1 {
		t.Fatalf("port stalls = %d", c.Stats().PortStalls)
	}
	c.BeginCycle(2)
	if _, ok := c.Access(64, false, 2); !ok {
		t.Fatal("port did not replenish")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := New(small()) // 16 sets, 2-way
	// Three blocks mapping to set 0: block addresses 0, 16*32, 32*32.
	a, b2, d := uint64(0), uint64(16*32), uint64(32*32)
	c.BeginCycle(1)
	c.Access(a, false, 1)
	c.BeginCycle(2)
	c.Access(b2, false, 2)
	c.BeginCycle(3)
	c.Access(a, false, 3) // refresh a; b2 is now LRU
	c.BeginCycle(4)
	c.Access(d, false, 4) // evicts b2
	if !c.Probe(a) {
		t.Fatal("a evicted despite recency")
	}
	if c.Probe(b2) {
		t.Fatal("b2 survived LRU eviction")
	}
}

func TestWritebackCounting(t *testing.T) {
	c := New(small())
	c.BeginCycle(1)
	c.Access(0, true, 1) // dirty block in set 0
	c.BeginCycle(2)
	c.Access(16*32, false, 2)
	c.BeginCycle(3)
	c.Access(32*32, false, 3) // evicts dirty block 0
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestFlush(t *testing.T) {
	c := New(small())
	c.BeginCycle(1)
	c.Access(0, true, 1)
	c.Flush()
	if c.Probe(0) {
		t.Fatal("flush left a line")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("flush did not write back the dirty line")
	}
}

func TestDefaultsGeometry(t *testing.T) {
	for _, cfg := range []Config{DefaultICache(), DefaultDCache()} {
		c := New(cfg)
		if c.BlockBytes() != 32 {
			t.Fatalf("%s block bytes %d", cfg.Name, c.BlockBytes())
		}
	}
}

// Property: a probe hits iff the block was accessed and not yet
// evicted; re-accessing any resident block is always a hit.
func TestCacheResidencyProperty(t *testing.T) {
	if err := quick.Check(func(addrs []uint16) bool {
		c := New(small())
		now := int64(0)
		for _, a := range addrs {
			now++
			c.BeginCycle(now)
			paddr := uint64(a) * 8
			c.Access(paddr, false, now)
			if !c.Probe(paddr) {
				return false // just-accessed block must be resident
			}
			now++
			c.BeginCycle(now)
			if extra, _ := c.Access(paddr, false, now); extra != 0 {
				return false // immediate re-access must hit
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A write-through cache never holds a dirty line: neither a write miss
// nor a write hit, timed or warm, marks one, so nothing is ever written
// back.
func TestWriteThroughNeverDirty(t *testing.T) {
	cfg := small()
	cfg.WriteBack = false
	if err := quick.Check(func(ops []uint16) bool {
		c := New(cfg)
		for i, op := range ops {
			now := int64(i + 1)
			paddr, write := uint64(op>>2)*8, op&1 != 0
			if op&2 != 0 {
				c.WarmAccess(paddr, write, now)
			} else {
				c.AccessUnported(paddr, write, now)
			}
		}
		for _, l := range c.ExportState().Lines {
			if l.Dirty {
				return false
			}
		}
		c.Flush()
		return c.Stats().Writebacks == 0
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Reset leaves the cache as New does: every line invalid, every counter
// zero, the tag array kept.
func TestResetMatchesNew(t *testing.T) {
	c := New(small())
	for i := int64(1); i <= 100; i++ {
		c.BeginCycle(i)
		c.Access(uint64(i*i)*24, i%3 == 0, i)
	}
	lines := &c.lines[0]
	c.Reset()
	if &c.lines[0] != lines {
		t.Error("Reset reallocated the tag array")
	}
	fresh := New(small())
	if !reflect.DeepEqual(c, fresh) {
		t.Errorf("reset cache %+v differs from a new one", c.Stats())
	}
}
