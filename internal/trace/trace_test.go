package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"hbat/internal/emu"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

func TestRoundTripProperty(t *testing.T) {
	check := func(addrs []uint32, writes []bool) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf, Header{Workload: "prop", PageSize: 4096})
		var recs []Record
		for i, a := range addrs {
			r := Record{Addr: uint64(a) * 3}
			if i < len(writes) {
				r.Write = writes[i]
			}
			recs = append(recs, r)
			if err := w.Add(r); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		if rd.Header().Workload != "prop" || rd.Header().PageSize != 4096 {
			return false
		}
		for _, want := range recs {
			got, err := rd.Next()
			if err != nil || got != want {
				return false
			}
		}
		_, err = rd.Next()
		return errors.Is(err, io.EOF)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Workload: "empty", PageSize: 8192})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Header().PageSize != 8192 {
		t.Fatal("header lost")
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestCaptureMatchesDirectExecution(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}

	// Direct: collect references from a functional run.
	m, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var direct []Record
	m.OnMemRef = func(a uint64, wr bool) { direct = append(direct, Record{a, wr}) }
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}

	// Via CaptureContext + Reader.
	var buf bytes.Buffer
	n, err := CaptureContext(context.Background(), p, 4096, &buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(direct)) {
		t.Fatalf("captured %d records, direct run made %d", n, len(direct))
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = rd.ForEach(func(r Record) error {
		if r != direct[i] {
			t.Fatalf("record %d: %+v vs %+v", i, r, direct[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(direct) {
		t.Fatalf("replayed %d of %d", i, len(direct))
	}
}

func TestCaptureCap(t *testing.T) {
	w, _ := workload.ByName("perl")
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := CaptureContext(context.Background(), p, 4096, &buf, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("captured %d, want 100", n)
	}
}

// TestReplayMissRateMatchesLive: feeding a captured trace into the
// Figure 6 model gives the same miss rate as the live hook.
func TestReplayMissRateMatchesLive(t *testing.T) {
	w, _ := workload.ByName("compress")
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	live := tlb.NewMissRateSim(8, tlb.LRU, 1)
	m, _ := emu.New(p, 4096)
	bits := m.AS.PageBits()
	m.OnMemRef = func(a uint64, _ bool) { live.Ref(a >> bits) }
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := CaptureContext(context.Background(), p, 4096, &buf, 0); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := tlb.NewMissRateSim(8, tlb.LRU, 1)
	if err := rd.ForEach(func(r Record) error {
		replayed.Ref(r.Addr >> 12)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if live.Misses != replayed.Misses || live.Refs != replayed.Refs {
		t.Fatalf("live %d/%d vs replayed %d/%d",
			live.Misses, live.Refs, replayed.Misses, replayed.Refs)
	}
}
