package bpred

import (
	"reflect"
	"testing"
)

func TestAlwaysTakenLoopLearns(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400100)
	correct := 0
	for i := 0; i < 100; i++ {
		taken, snap := p.PredictDir(pc)
		if p.Resolve(pc, taken, true, snap) {
			correct++
		}
	}
	if correct < 95 {
		t.Fatalf("always-taken loop: %d/100 correct", correct)
	}
}

func TestAlternatingPatternLearns(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400200)
	correct := 0
	for i := 0; i < 200; i++ {
		actual := i%2 == 0
		taken, snap := p.PredictDir(pc)
		if p.Resolve(pc, taken, actual, snap) {
			correct++
		}
	}
	// Two-level history predictors learn alternation nearly perfectly.
	if correct < 180 {
		t.Fatalf("alternating pattern: %d/200 correct", correct)
	}
}

func TestHistoryRepairOnMispredict(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400300)
	_, snap := p.PredictDir(pc)
	before := p.ghr
	_ = before
	p.Resolve(pc, true, false, snap) // mispredicted taken, actually not
	want := (snap << 1) & ((1 << 8) - 1)
	if p.ghr != want {
		t.Fatalf("history after repair = %#x, want %#x", p.ghr, want)
	}
}

func TestBTB(t *testing.T) {
	p := New(DefaultConfig())
	if _, ok := p.PredictTarget(0x400400); ok {
		t.Fatal("cold BTB hit")
	}
	p.UpdateTarget(0x400400, 0x400800)
	tgt, ok := p.PredictTarget(0x400400)
	if !ok || tgt != 0x400800 {
		t.Fatalf("BTB: %#x ok=%v", tgt, ok)
	}
	// Conflicting pc in the same set replaces.
	other := uint64(0x400400 + 512*4)
	p.UpdateTarget(other, 0x400900)
	if _, ok := p.PredictTarget(0x400400); ok {
		t.Fatal("direct-mapped BTB kept both conflicting entries")
	}
}

func TestStatsRate(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400500)
	for i := 0; i < 10; i++ {
		taken, snap := p.PredictDir(pc)
		p.Resolve(pc, taken, true, snap)
	}
	if r := p.stats.DirRate(); r <= 0.5 {
		t.Fatalf("dir rate %f", r)
	}
}

func TestRestoreHistory(t *testing.T) {
	p := New(DefaultConfig())
	p.PredictDir(0x400600)
	p.RestoreHistory(0xAB)
	if p.ghr != 0xAB {
		t.Fatalf("history = %#x", p.ghr)
	}
}

// Reset leaves the predictor as New does, keeping its tables.
func TestResetMatchesNew(t *testing.T) {
	p := New(DefaultConfig())
	for pc := uint64(0); pc < 4096; pc += 4 {
		taken, snap := p.PredictDir(pc)
		p.Resolve(pc, taken, pc%12 == 0, snap)
		p.UpdateTarget(pc, pc+64)
		p.PredictTarget(pc)
	}
	pht := &p.pht[0]
	p.Reset()
	if &p.pht[0] != pht {
		t.Error("Reset reallocated the pattern history table")
	}
	if !reflect.DeepEqual(p, New(DefaultConfig())) {
		t.Errorf("reset predictor differs from a new one (stats %+v, ghr %#x)", p.stats, p.ghr)
	}
}
