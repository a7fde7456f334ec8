package sblock_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"testing"

	"hbat/internal/isa"
	"hbat/internal/mem"
	"hbat/internal/prog"
	"hbat/internal/progen"
)

// imageSpan is the data the shared-frame programs address: the first
// half holds initial data, the second half is untouched memory.
const imageSpan = 4 * 8192

// sharedFrameProgram builds a program whose loads and stores hit
// initial data (frames shared with the program's image) and untouched
// memory (the zero frame). It opens with the sequence a stale view
// would break: read page 1, write its first bytes with a store that
// starts on page 0 (at a frame boundary, the slow path), and read page
// 1 again through the fast path. Then come n random accesses, most of
// them within a few bytes of a page or frame boundary, three times over
// so later passes find their pages in the translation cache.
func sharedFrameProgram(t *testing.T, seed uint64, pageSize uint64, n int) *prog.Program {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, pageSize))
	b := prog.NewBuilder("shared-frames")
	buf := b.Alloc("buf", imageSpan, 8192)
	words := make([]uint64, imageSpan/2/8)
	for i := range words {
		words[i] = r.Uint64()
	}
	b.SetWords(buf, words)
	addr, v, acc, pass := b.IVar("addr"), b.IVar("v"), b.IVar("acc"), b.IVar("pass")

	load := func(op func(rd, base isa.Reg, off int32), at uint64) {
		b.Li(addr, int64(buf+at))
		op(v, addr, 0)
		b.Add(acc, acc, v)
	}
	store := func(op func(rv, base isa.Reg, off int32), at uint64) {
		b.Li(addr, int64(buf+at))
		b.Addi(acc, acc, 0x155)
		op(acc, addr, 0)
	}
	memOp := func(op isa.Op) func(r, base isa.Reg, off int32) {
		return func(r, base isa.Reg, off int32) { b.MemOp(op, isa.AMImm, r, base, 0, off) }
	}
	loads := []func(rd, base isa.Reg, off int32){b.Ld, memOp(isa.Lw), memOp(isa.Lh), memOp(isa.Lbu)}
	stores := []func(rv, base isa.Reg, off int32){b.Sd, memOp(isa.Sw), memOp(isa.Sh), memOp(isa.Sb)}

	load(b.Ld, pageSize)
	store(b.Sd, pageSize-4)
	load(b.Ld, pageSize)

	b.Li(pass, 3)
	b.Label("pass")
	for i := 0; i < n; i++ {
		at := uint64(r.IntN(imageSpan - 8))
		if r.IntN(4) != 0 {
			unit := pageSize
			if r.IntN(2) == 0 {
				unit = mem.FrameSize
			}
			at = uint64(r.IntN(imageSpan/int(unit)))*unit + uint64(r.IntN(16))
			at = min(max(at, 8)-8, imageSpan-8)
		}
		if r.IntN(2) == 0 {
			load(loads[r.IntN(len(loads))], at)
		} else {
			store(stores[r.IntN(len(stores))], at)
		}
	}
	b.Addi(pass, pass, -1)
	b.Bgtz(pass, "pass")
	b.Halt()
	p, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// imageHash is the SHA-256 of the bytes of p's data segments.
func imageHash(p *prog.Program) [32]byte {
	h := sha256.New()
	for _, seg := range p.Data {
		buf := make([]byte, seg.Size)
		progen.ReadImage(&p.Image, seg.Addr, buf)
		h.Write(buf)
	}
	return [32]byte(h.Sum(nil))
}

// TestSharedFramesMatchInterpreter: reads take read-only views of
// shared image frames and of the zero frame, and writes — fast, slow,
// straddling a page or a frame, to a page that shares its frame with
// another (pages below a frame) — replace them. Whatever the order,
// the translated engine must end in the interpreter's exact state, and
// neither may write the program's image.
func TestSharedFramesMatchInterpreter(t *testing.T) {
	for _, pageSize := range []uint64{1024, 2048, 4096, 8192} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("page%d/seed%d", pageSize, seed), func(t *testing.T) {
				p := sharedFrameProgram(t, seed, pageSize, 300)
				before := imageHash(p)
				ref, tr, eng := newPair(t, p, pageSize)
				rerr, gerr := ref.Run(0), eng.Run(0)
				if errString(rerr) != errString(gerr) {
					t.Fatalf("interpreted err %q, translated err %q", errString(rerr), errString(gerr))
				}
				compareState(t, ref, tr)
				if imageHash(p) != before {
					t.Fatal("a run wrote the program's image")
				}
			})
		}
	}
}
