package cache

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// refCache is the plain LRU model the packed tag array is checked
// against: one LineState per way, set-major, and the replacement rule
// written out — the first invalid way, else the first way with the
// oldest stamp.
type refCache struct {
	sets, assoc              int
	blockBits                uint
	writeBack                bool
	lines                    []LineState
	hits, misses, writebacks uint64
}

func newRef(cfg Config) *refCache {
	sets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Assoc)
	r := &refCache{sets: sets, assoc: cfg.Assoc, writeBack: cfg.WriteBack, lines: make([]LineState, sets*cfg.Assoc)}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		r.blockBits++
	}
	return r
}

func (r *refCache) ways(block uint64) []LineState {
	s := int(block % uint64(r.sets))
	return r.lines[s*r.assoc : (s+1)*r.assoc]
}

func (r *refCache) probe(paddr uint64) bool {
	block := paddr >> r.blockBits
	for _, l := range r.ways(block) {
		if l.Valid && l.Tag == block {
			return true
		}
	}
	return false
}

func (r *refCache) access(paddr uint64, write bool, now int64, count bool) {
	block := paddr >> r.blockBits
	set := r.ways(block)
	for i := range set {
		if set[i].Valid && set[i].Tag == block {
			set[i].Used = now
			set[i].Dirty = set[i].Dirty || write && r.writeBack
			if count {
				r.hits++
			}
			return
		}
	}
	if count {
		r.misses++
	}
	victim := -1
	for i := range set {
		if !set[i].Valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].Used < set[victim].Used {
				victim = i
			}
		}
	}
	if count && r.writeBack && set[victim].Valid && set[victim].Dirty {
		r.writebacks++
	}
	set[victim] = LineState{Tag: block, Valid: true, Dirty: write && r.writeBack, Used: now}
}

// TestTagArrayMatchesReferenceLRU replays random streams — timed and
// warm accesses mixed, reads and writes, addresses from a few hot sets
// and from the whole 64-bit space — against the reference model, on
// every associativity and write policy: every probe, the counters and
// the exported tag array must agree. A state exported midway and
// imported into a fresh cache must then run the rest of the stream
// identically.
func TestTagArrayMatchesReferenceLRU(t *testing.T) {
	for _, assoc := range []int{1, 2, 4} {
		for _, wb := range []bool{false, true} {
			cfg := Config{Name: "m", SizeBytes: 8 * 16 * assoc, Assoc: assoc, BlockBytes: 16, MissLatency: 6, WriteBack: wb}
			for seed := uint64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("assoc%d/wb=%v/seed%d", assoc, wb, seed), func(t *testing.T) {
					replayAgainstRef(t, cfg, rand.New(rand.NewPCG(seed, uint64(assoc))))
				})
			}
		}
	}
}

func replayAgainstRef(t *testing.T, cfg Config, rng *rand.Rand) {
	c, ref := New(cfg), newRef(cfg)
	var restored *Cache
	const steps = 4000
	for step := 0; step < steps; step++ {
		paddr := rng.Uint64N(64 * 16) // 64 blocks over 8 sets: conflicts
		if rng.IntN(8) == 0 {
			paddr = rng.Uint64() // the top bits of an address never collide with a line's flags
		}
		write := rng.IntN(3) == 0
		now := int64(step / 2) // pairs share a stamp: ties pick the first way
		warm := rng.IntN(3) == 0
		if warm {
			now -= steps
		}
		for _, m := range []*Cache{c, restored} {
			switch {
			case m == nil:
			case warm:
				m.WarmAccess(paddr, write, now)
			default:
				want := int64(0)
				if !ref.probe(paddr) {
					want = cfg.MissLatency
				}
				if got := m.AccessUnported(paddr, write, now); got != want {
					t.Fatalf("step %d: access %#x returned %d, want %d", step, paddr, got, want)
				}
			}
		}
		ref.access(paddr, write, now, !warm)
		probe := rng.Uint64N(64 * 16)
		if c.Probe(probe) != ref.probe(probe) {
			t.Fatalf("step %d: Probe(%#x) = %v, reference %v", step, probe, c.Probe(probe), ref.probe(probe))
		}
		if step == steps/2 {
			restored = New(cfg)
			if err := restored.ImportState(c.ExportState()); err != nil {
				t.Fatal(err)
			}
			*restored.Stats() = *c.Stats()
		}
	}
	s := c.Stats()
	if s.Hits != ref.hits || s.Misses != ref.misses || s.Writebacks != ref.writebacks {
		t.Errorf("counters: hits %d misses %d writebacks %d, reference %d %d %d",
			s.Hits, s.Misses, s.Writebacks, ref.hits, ref.misses, ref.writebacks)
	}
	want := State{Sets: ref.sets, Assoc: ref.assoc, Lines: ref.lines}
	if got := c.ExportState(); !reflect.DeepEqual(got, want) {
		t.Error("exported tag array differs from the reference model's")
	}
	if got := restored.ExportState(); !reflect.DeepEqual(got, want) || *restored.Stats() != *s {
		t.Error("a cache restored midway diverged from the one it was exported from")
	}
}

// TestImportStateRejectsFlagBitTags: a tag reaching the top two bits
// would alias a line's valid and dirty flags; ImportState refuses it
// whole, leaving the cache as it was.
func TestImportStateRejectsFlagBitTags(t *testing.T) {
	for _, bit := range []uint64{dirtyBit, validBit} {
		c := New(DefaultDCache())
		c.WarmAccess(0x40, true, -1)
		before := c.ExportState()
		st := c.ExportState()
		st.Lines[len(st.Lines)-1] = LineState{Tag: bit | 7, Valid: true, Used: -2}
		err := c.ImportState(st)
		if err == nil || !strings.Contains(err.Error(), "not a block address") {
			t.Fatalf("tag %#x: ImportState = %v, want a refusal", bit|7, err)
		}
		if !reflect.DeepEqual(c.ExportState(), before) {
			t.Fatalf("tag %#x: a refused import changed the cache", bit|7)
		}
	}
}
