package cpu

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"

	"hbat/internal/pipetrace"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

func traceTestMachine(t *testing.T, design string) *Machine {
	t.Helper()
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithDesign(p, DefaultConfig(), design)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTraceCoversPipeline runs a port-pressured design with a large
// buffer and checks the recorder saw every lifecycle stage, agreeing
// with the aggregate counters where an exact correspondence exists.
func TestTraceCoversPipeline(t *testing.T) {
	m := traceTestMachine(t, "T1")
	m.SetTracer(pipetrace.New(pipetrace.Config{Cap: 1 << 20}))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr := m.Tracer()
	if tr.Dropped() != 0 {
		t.Fatalf("buffer wrapped (%d dropped); enlarge Cap so counts are exact", tr.Dropped())
	}
	var counts [64]uint64
	for _, e := range tr.Events() {
		counts[e.Kind]++
	}
	s := m.Stats()
	if counts[pipetrace.KCommit] != s.Committed {
		t.Errorf("commit events %d, committed %d", counts[pipetrace.KCommit], s.Committed)
	}
	if counts[pipetrace.KSquash] != s.Squashed {
		t.Errorf("squash events %d, squashed %d", counts[pipetrace.KSquash], s.Squashed)
	}
	if counts[pipetrace.KIssue] != s.Issued {
		t.Errorf("issue events %d, issued %d", counts[pipetrace.KIssue], s.Issued)
	}
	if counts[pipetrace.KTLBNoPort] != s.TLBRetries {
		t.Errorf("tlb-noport events %d, retries %d", counts[pipetrace.KTLBNoPort], s.TLBRetries)
	}
	if counts[pipetrace.KWalkEnd] == 0 {
		t.Error("no page-table walks recorded")
	}
	if counts[pipetrace.KWalkStart] != counts[pipetrace.KWalkEnd] {
		t.Errorf("walk starts %d != walk ends %d", counts[pipetrace.KWalkStart], counts[pipetrace.KWalkEnd])
	}
	for _, k := range []pipetrace.Kind{
		pipetrace.KFetch, pipetrace.KDispatch, pipetrace.KComplete,
		pipetrace.KTLBHit, pipetrace.KTLBMiss, pipetrace.KDCacheHit, pipetrace.KDCacheMiss,
	} {
		if counts[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	// Dispatch events must never outnumber fetch events: every dispatched
	// instruction's fetch was back-filled from the fetch queue.
	if counts[pipetrace.KDispatch] > counts[pipetrace.KFetch] {
		t.Errorf("dispatch %d > fetch %d", counts[pipetrace.KDispatch], counts[pipetrace.KFetch])
	}
}

// TestTraceWindow checks cycle-range windowing against a full recording
// of the same deterministic run.
func TestTraceWindow(t *testing.T) {
	m := traceTestMachine(t, "T4")
	m.SetTracer(pipetrace.New(pipetrace.Config{Cap: 1 << 20, Start: 200, End: 400}))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	evs := m.Tracer().Events()
	if len(evs) == 0 {
		t.Fatal("window recorded nothing")
	}
	for _, e := range evs {
		if e.Cycle < 200 || e.Cycle > 400 {
			t.Fatalf("event at cycle %d escaped window [200,400]", e.Cycle)
		}
	}
}

// TestTraceEmptyWindow: an inverted window is valid and records nothing.
func TestTraceEmptyWindow(t *testing.T) {
	m := traceTestMachine(t, "T4")
	m.SetTracer(pipetrace.New(pipetrace.Config{Cap: 1 << 10, Start: 500, End: 100}))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if n := m.Tracer().Len(); n != 0 {
		t.Errorf("empty window recorded %d events", n)
	}
}

// TestTickNoAllocs pins the hot path: after warmup, a simulation cycle
// performs zero heap allocations — with tracing off and with a tracer
// attached (the ring buffer is preallocated).
func TestTickNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer *pipetrace.Recorder
	}{
		{"tracing-off", nil},
		{"tracing-on", pipetrace.New(pipetrace.Config{Cap: 1 << 20})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := traceTestMachine(t, "T4")
			m.SetTracer(tc.tracer)
			for i := 0; i < 2000 && !m.halted && m.err == nil; i++ {
				m.tick() // warm up: queues, ROB, cache state reach steady shape
			}
			if m.halted || m.err != nil {
				t.Fatalf("machine stopped during warmup: halted=%v err=%v", m.halted, m.err)
			}
			allocs := testing.AllocsPerRun(500, func() {
				if !m.halted && m.err == nil {
					m.tick()
				}
			})
			if allocs != 0 {
				t.Errorf("tick allocates %.2f per cycle, want 0", allocs)
			}
		})
	}
}

// TestIntervalSampling checks the time-series rows cover the run and a
// final partial interval is flushed.
func TestIntervalSampling(t *testing.T) {
	m := traceTestMachine(t, "T4")
	m.EnableIntervalSampling(1000)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	iv := m.Intervals()
	if iv == nil {
		t.Fatal("no interval series")
	}
	var csvOut bytes.Buffer
	if err := iv.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&csvOut).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	for _, rec := range recs[1:] {
		row := make([]float64, len(rec))
		for i, f := range rec {
			if row[i], err = strconv.ParseFloat(f, 64); err != nil {
				t.Fatal(err)
			}
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		t.Fatal("no interval rows")
	}
	cycles := m.Stats().Cycles
	wantRows := int(cycles / 1000)
	if cycles%1000 != 0 {
		wantRows++ // the flushed partial interval
	}
	if len(rows) != wantRows {
		t.Errorf("rows = %d, want %d for %d cycles", len(rows), wantRows, cycles)
	}
	last := rows[len(rows)-1]
	if int64(last[0]) != cycles {
		t.Errorf("last sample at cycle %v, run ended at %d", last[0], cycles)
	}
	// Committed-IPC column must integrate back to the aggregate count.
	var insts float64
	prev := 0.0
	for _, r := range rows {
		insts += r[1] * (r[0] - prev)
		prev = r[0]
	}
	if got, want := uint64(insts+0.5), m.Stats().Committed; got != want {
		t.Errorf("interval IPC integrates to %d insts, committed %d", got, want)
	}
}

// TestProgressHeartbeat checks the callback cadence.
func TestProgressHeartbeat(t *testing.T) {
	m := traceTestMachine(t, "T4")
	var calls int
	var lastCycle int64
	m.SetProgress(1000, func(cycle int64, committed uint64) {
		calls++
		lastCycle = cycle
		if cycle%1000 != 0 {
			t.Errorf("heartbeat at cycle %d, not a multiple of 1000", cycle)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := int(m.Stats().Cycles / 1000)
	if calls != want {
		t.Errorf("heartbeat fired %d times over %d cycles, want %d", calls, m.Stats().Cycles, want)
	}
	if calls > 0 && lastCycle == 0 {
		t.Error("heartbeat never reported a nonzero cycle")
	}
}
