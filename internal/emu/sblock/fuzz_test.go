package sblock_test

import (
	"testing"

	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/prog"
	"hbat/internal/progen"
)

// FuzzSuperblockExec feeds generated programs through the translated
// engine and the interpreter and requires bit-identical outcomes:
// final registers and PC, retirement counts, page-table contents and
// allocation order, memory frames, walk counts, and error text. A third
// machine runs under Warm, whose reference stream must be the
// interpreter's OnMemRef stream. The generator's flavors steer the
// search toward the engine's risk areas (dense branching for
// block-boundary bugs, dense memory traffic for translation-cache
// bugs); the flags byte toggles register pressure, page size, and a
// mid-run budget stop so partial-block execution is fuzzed too.
func FuzzSuperblockExec(f *testing.F) {
	// seed, length, flavor, flags (1=Budget8, 2=8K pages, 4=partial budget)
	f.Add(uint64(17), uint16(150), progen.FlavorMixed, uint8(0))
	f.Add(uint64(4242), uint16(220), progen.FlavorMem, uint8(0))     // translation-cache pressure
	f.Add(uint64(907), uint16(220), progen.FlavorBranchy, uint8(0))  // block-boundary pressure
	f.Add(uint64(1251), uint16(180), progen.FlavorMixed, uint8(1))   // spill/reload traffic
	f.Add(uint64(77), uint16(160), progen.FlavorMem, uint8(2))       // 8K pages: frame-cache geometry
	f.Add(uint64(3301), uint16(200), progen.FlavorBranchy, uint8(4)) // budget stops mid-block
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, flavor, flags uint8) {
		nInsts := 20 + int(n)%400
		budget := prog.Budget32
		if flags&1 != 0 {
			budget = prog.Budget8
		}
		pageSize := uint64(4096)
		if flags&2 != 0 {
			pageSize = 8192
		}
		p, err := progen.Generate(seed, nInsts, budget, flavor%progen.NumFlavors)
		if err != nil {
			t.Fatalf("gen: %v", err)
		}
		ref, err := emu.New(p, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := emu.New(p, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		eng := sblock.New(tr)
		var maxInsts uint64
		if flags&4 != 0 {
			maxInsts = uint64(seed%997) + 1
		}
		interp := recordRefs(ref)
		rerr := ref.Run(maxInsts)
		gerr := eng.Run(maxInsts)
		if errString(rerr) != errString(gerr) {
			t.Fatalf("error mismatch: interpreted %q, translated %q", errString(rerr), errString(gerr))
		}
		compareState(t, ref, tr)

		checkWarm(t, p, pageSize, maxInsts, ref, rerr, *interp)
	})
}
