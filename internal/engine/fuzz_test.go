package engine

import (
	"context"
	"errors"
	"testing"

	"hbat/api"
	"hbat/internal/ckpt"
	"hbat/internal/prog"
	"hbat/internal/workload"
)

// TestSpecFromWireRefusals: each field SpecFromWire checks refuses a bad
// value with a *SpecError naming it, and the largest page the program
// layout runs under is accepted.
func TestSpecFromWireRefusals(t *testing.T) {
	for _, tc := range []struct {
		field string
		o     api.SimOptions
	}{
		{"scale", api.SimOptions{CommonOptions: api.CommonOptions{Scale: "huge"}}},
		{"workload", api.SimOptions{Workload: "nope"}},
		{"design", api.SimOptions{Design: "Z9"}},
		{"page_size", api.SimOptions{PageSize: 3000}},
		{"page_size", api.SimOptions{PageSize: 512}},
		{"page_size", api.SimOptions{PageSize: 2 * prog.MaxPageSize}},
	} {
		_, err := SpecFromWire(tc.o)
		var se *SpecError
		if !errors.As(err, &se) || se.Field != tc.field {
			t.Errorf("%+v: err %v, want a *SpecError on %s", tc.o, err, tc.field)
		}
	}
	if _, err := SpecFromWire(api.SimOptions{PageSize: prog.MaxPageSize}); err != nil {
		t.Errorf("page size %d refused: %v", prog.MaxPageSize, err)
	}
}

// FuzzSpecRuns: a spec is either refused at intake with a *SpecError or
// runs, at test scale, to completion or to a documented typed error
// (ckpt.ErrShortProgram: a fast-forward past the program's end). A
// panic or any other error is a bug. flags packs the booleans: bit 0
// InOrder, 1 FewRegisters, 2 VirtualCache, 3 Lockstep. The seed corpus
// is testdata/fuzz/FuzzSpecRuns.
func FuzzSpecRuns(f *testing.F) {
	eng := New()
	f.Fuzz(func(t *testing.T, scale, wl, design string, pageSize, seed, ffwd, maxInsts, ctxSwitch uint64, flags uint8) {
		o := api.SimOptions{
			CommonOptions:      api.CommonOptions{Scale: scale, Seed: seed, FastForward: ffwd},
			Workload:           wl,
			Design:             design,
			PageSize:           pageSize,
			InOrder:            flags&1 != 0,
			FewRegisters:       flags&2 != 0,
			VirtualCache:       flags&4 != 0,
			MaxInsts:           maxInsts,
			ContextSwitchEvery: ctxSwitch,
			Lockstep:           flags&8 != 0,
		}
		spec, err := SpecFromWire(o)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("%+v refused with an untyped error: %v", o, err)
			}
			return
		}
		spec.Scale = workload.ScaleTest
		res := eng.Run(context.Background(), spec)
		if res.Err != nil && !errors.Is(res.Err, ckpt.ErrShortProgram) {
			t.Fatalf("accepted spec %s failed: %v", spec, res.Err)
		}
		if res.Err == nil && res.Stats.Committed == 0 {
			t.Fatalf("accepted spec %s committed nothing", spec)
		}
	})
}
