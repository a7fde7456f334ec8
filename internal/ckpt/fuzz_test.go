package ckpt

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"hbat/internal/emu"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/workload"
)

// mustRun executes p functionally to halt (shared by tests needing the
// reference end state).
func mustRun(t *testing.T, p *prog.Program) *emu.Machine {
	t.Helper()
	em, err := emu.New(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	em.AS.ClearStatus()
	if err := em.Run(0); err != nil {
		t.Fatal(err)
	}
	return em
}

// FuzzCheckpointRoundTrip is the codec's robustness fuzz target: any
// input either decodes — in which case re-encoding must reproduce the
// exact input bytes — or is rejected with one of the typed errors.
// Panics, unbounded allocations, and untyped errors are all failures.
func FuzzCheckpointRoundTrip(f *testing.F) {
	// Seed with a real encoded checkpoint plus edge shapes; the on-disk
	// corpus under testdata/fuzz adds pre-mutated variants.
	w := progen.Workloads()[0]
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		f.Fatal(err)
	}
	c, err := Build(context.Background(), p, testBuildConfig(2000))
	if err != nil {
		f.Fatal(err)
	}
	valid := c.Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), make([]byte, 40)...))
	f.Add(valid[:len(valid)-1])
	f.Add(reseal(append([]byte(nil), valid...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if re := got.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not canonical: re-encode differs (%d vs %d bytes)", len(re), len(data))
		}
	})
}
