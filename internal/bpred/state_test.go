package bpred

import (
	"reflect"
	"testing"
)

// TestWarmCondNoStats: functional training must move the tables without
// perturbing any counter, and must bias a later prediction.
func TestWarmCondNoStats(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x1040)
	for i := 0; i < 8; i++ {
		p.WarmCond(pc, true)
	}
	if got := p.stats; got != (Stats{}) {
		t.Fatalf("WarmCond perturbed stats: %+v", got)
	}
	// After consistent taken-training under a converged history, the
	// prediction at that history must be taken.
	taken, _ := p.PredictDir(pc)
	if !taken {
		t.Fatal("warm-trained branch predicted not-taken")
	}
}

// TestWarmCondShiftsHistory: warming must thread outcomes through the
// global history register exactly like resolved branches do.
func TestWarmCondShiftsHistory(t *testing.T) {
	p := New(DefaultConfig())
	p.WarmCond(0x1000, true)
	p.WarmCond(0x1004, false)
	p.WarmCond(0x1008, true)
	if got, want := p.ghr, uint64(0b101); got != want {
		t.Fatalf("history after warm T,N,T = %b, want %b", got, want)
	}
}

func TestPredictorStateRoundTrip(t *testing.T) {
	p := New(DefaultConfig())
	for i := uint64(0); i < 500; i++ {
		p.WarmCond(0x1000+i*4, i%3 != 0)
		if i%5 == 0 {
			p.UpdateTarget(0x1000+i*4, 0x2000+i*8)
		}
	}
	st := p.ExportState()
	q := New(DefaultConfig())
	if err := q.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if got := q.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatal("export-import-export is not a fixed point")
	}
}

func TestPredictorImportGeometryMismatch(t *testing.T) {
	st := New(DefaultConfig()).ExportState()
	small := New(Config{HistoryBits: 4, PHTEntries: 256, BTBEntries: 64, MispredictPenalty: 3})
	if err := small.ImportState(st); err == nil {
		t.Fatal("ImportState accepted mismatched geometry")
	}
}
