package pipetrace

import (
	"strings"
	"testing"

	"hbat/internal/isa"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled(1) {
		t.Error("nil recorder reports enabled")
	}
	r.Emit(0, 1, KFetch, 0, nil, 0) // must not panic
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Errorf("nil recorder reports state: len %d total %d dropped %d", r.Len(), r.Total(), r.Dropped())
	}
	if evs := r.Events(); evs != nil {
		t.Errorf("nil recorder returned events: %v", evs)
	}
}

func TestConfigNormalization(t *testing.T) {
	r := New(Config{})
	if got := r.cfg.Start; got != 1 {
		t.Errorf("default start = %d, want 1", got)
	}
	if cap(r.buf) != 1<<16 {
		t.Errorf("default cap = %d, want %d", cap(r.buf), 1<<16)
	}
	r = New(Config{Start: -5, End: -1, Cap: 4})
	s, e := r.cfg.Start, r.cfg.End
	if s != 1 || e != 0 {
		t.Errorf("window = [%d,%d], want [1,0]", s, e)
	}
}

func TestWindowClamping(t *testing.T) {
	r := New(Config{Cap: 16, Start: 10, End: 20})
	for c := int64(1); c <= 30; c++ {
		r.Emit(c, c, KFetch, 0, nil, 0)
	}
	evs := r.Events()
	if len(evs) != 11 {
		t.Fatalf("recorded %d events, want 11 (cycles 10..20)", len(evs))
	}
	if evs[0].Cycle != 10 || evs[len(evs)-1].Cycle != 20 {
		t.Errorf("window = %d..%d, want 10..20", evs[0].Cycle, evs[len(evs)-1].Cycle)
	}
}

func TestEmptyWindowRecordsNothing(t *testing.T) {
	// End < Start: a valid but empty window.
	r := New(Config{Cap: 16, Start: 100, End: 50})
	for c := int64(1); c <= 200; c++ {
		r.Emit(c, c, KFetch, 0, nil, 0)
	}
	if r.Len() != 0 || r.Total() != 0 {
		t.Errorf("empty window recorded %d events (%d emitted)", r.Len(), r.Total())
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(Config{Cap: 8})
	for c := int64(1); c <= 20; c++ {
		r.Emit(c, c, KFetch, 0, nil, c)
	}
	if r.Len() != 8 {
		t.Fatalf("len = %d, want 8", r.Len())
	}
	if r.Total() != 20 || r.Dropped() != 12 {
		t.Errorf("total %d dropped %d, want 20/12", r.Total(), r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if want := int64(13 + i); e.Cycle != want {
			t.Errorf("event %d: cycle %d, want %d", i, e.Cycle, want)
		}
	}
}

func TestEventsStableWithinCycle(t *testing.T) {
	r := New(Config{Cap: 8})
	r.Emit(1, 5, KFetch, 0, nil, 0)
	r.Emit(1, 5, KDispatch, 0, nil, 0)
	r.Emit(2, 3, KFetch, 0, nil, 0)
	evs := r.Events()
	if len(evs) != 3 || evs[0].Cycle != 3 {
		t.Fatalf("unexpected events: %+v", evs)
	}
	if evs[1].Kind != KFetch || evs[2].Kind != KDispatch {
		t.Errorf("emit order not preserved within cycle: %v %v", evs[1].Kind, evs[2].Kind)
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	r := New(Config{Cap: 1024})
	in := &isa.Inst{Op: isa.Add}
	c := int64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		c++
		r.Emit(c, c, KIssue, 0x400000, in, 1)
	})
	if allocs != 0 {
		t.Errorf("Emit allocates %.1f per call, want 0", allocs)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); s == "" || strings.Contains(s, "?") {
			t.Errorf("kind %d has bad name %q", k, s)
		}
	}
	if s := Kind(200).String(); !strings.Contains(s, "?") {
		t.Errorf("out-of-range kind renders %q", s)
	}
}

func TestDisasmNilInst(t *testing.T) {
	e := Event{}
	if e.Disasm() != "?" {
		t.Errorf("nil-inst disasm = %q, want ?", e.Disasm())
	}
}
