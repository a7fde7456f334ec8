package cpu

import (
	"testing"

	"hbat/internal/isa"
	"hbat/internal/prog"
)

// TestPostIncrementDualDestination: a post-increment load writes both
// its value register and its base register; consumers of either must
// see the right value with the right timing (the base update is ready
// at address generation, a cycle before the loaded value).
func TestPostIncrementDualDestination(t *testing.T) {
	m := runProg(t, func(b *prog.Builder) {
		arr := b.Alloc("arr", 64, 8)
		_ = arr
		b.SetWords(b.Addr("arr"), []uint64{111, 222, 333})
		b.Alloc("out", 32, 8)
		p := b.IVar("p")
		v := b.IVar("v")
		pcopy := b.IVar("pcopy")
		o := b.IVar("o")
		b.La(p, "arr")
		b.LdPost(v, p, 8) // v=111, p=arr+8
		b.Move(pcopy, p)  // consumer of the base update
		b.LdPost(v, p, 8) // v=222, p=arr+16
		b.La(o, "out")
		b.Sd(v, o, 0)
		b.Sd(pcopy, o, 8)
		b.Halt()
	}, DefaultConfig(), "T4")
	var buf [16]byte
	if err := m.ReadVirt(prog.DataBase+64, buf[:]); err != nil {
		t.Fatal(err)
	}
	v := uint64(buf[0]) | uint64(buf[1])<<8
	if v != 222 {
		t.Fatalf("second post-inc load got %d, want 222", v)
	}
	pc := uint64(buf[8]) | uint64(buf[9])<<8 | uint64(buf[10])<<16 | uint64(buf[11])<<24 |
		uint64(buf[12])<<32
	if pc != prog.DataBase+8 {
		t.Fatalf("base copy = %#x, want %#x", pc, uint64(prog.DataBase+8))
	}
}

// TestUnpipelinedDivideSerializes: the single integer MULT/DIV unit's
// divide has issue interval = latency (12), so back-to-back independent
// divides cost ~12 cycles each, while back-to-back multiplies pipeline.
func TestUnpipelinedDivideSerializes(t *testing.T) {
	build := func(op func(b *prog.Builder, rd, rs, rt isa.Reg)) func(*prog.Builder) {
		return func(b *prog.Builder) {
			a := b.IVar("a")
			c := b.IVar("c")
			var outs [8]isa.Reg
			for i := range outs {
				outs[i] = b.IVar(string(rune('p' + i)))
			}
			b.Li(a, 1000)
			b.Li(c, 3)
			for i := 0; i < 16; i++ {
				op(b, outs[i%8], a, c) // independent ops
			}
			b.Halt()
		}
	}
	mDiv := runProg(t, build(func(b *prog.Builder, rd, rs, rt isa.Reg) { b.Div(rd, rs, rt) }), DefaultConfig(), "T4")
	mMul := runProg(t, build(func(b *prog.Builder, rd, rs, rt isa.Reg) { b.Mult(rd, rs, rt) }), DefaultConfig(), "T4")
	// 16 divides at 12-cycle issue interval ≈ 192+ cycles; 16 multiplies
	// pipeline at 1/cycle ≈ 20-30 cycles.
	if mDiv.Stats().Cycles < 16*DefaultConfig().IntDivLat {
		t.Fatalf("divides took %d cycles; unpipelined unit requires >= %d",
			mDiv.Stats().Cycles, 16*DefaultConfig().IntDivLat)
	}
	if mMul.Stats().Cycles*3 > mDiv.Stats().Cycles {
		t.Fatalf("multiplies (%d cycles) not much faster than divides (%d)",
			mMul.Stats().Cycles, mDiv.Stats().Cycles)
	}
}

// TestLSQCapacityStallsDispatch: more in-flight memory operations than
// LSQ entries must throttle dispatch, visible as LSQ-full stalls.
func TestLSQCapacityStallsDispatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LSQSize = 4
	m := runProg(t, func(b *prog.Builder) {
		b.Alloc("arr", 4096, 8)
		p := b.IVar("p")
		v := b.IVar("v")
		b.La(p, "arr")
		// A slow divide feeding an address makes younger loads pile up.
		d := b.IVar("d")
		e := b.IVar("e")
		b.Li(d, 4096)
		b.Li(e, 64)
		for i := 0; i < 10; i++ {
			b.Div(d, d, e) // long chain
		}
		b.Andi(d, d, 0)
		b.Add(p, p, d)
		for i := 0; i < 12; i++ {
			b.Ld(v, p, int32(8*i))
		}
		b.Halt()
	}, cfg, "T4")
	if m.Stats().DispatchLSQFull == 0 {
		t.Fatal("no LSQ-full stalls with a 4-entry LSQ and 12 pending loads")
	}
}

// TestCollapsingBufferPredictionBandwidth: with one prediction per
// cycle, fetch ends at each branch; the collapsing-buffer variant's two
// predictions let branch-dense, otherwise-independent code fetch (and
// therefore execute) faster — the front-end bottleneck Section 4.1
// says motivated the variant.
func TestCollapsingBufferPredictionBandwidth(t *testing.T) {
	build := func(b *prog.Builder) {
		var regs [8]isa.Reg
		for i := range regs {
			regs[i] = b.IVar(string(rune('a' + i)))
		}
		// Straight-line code: every third instruction is a never-taken
		// branch; the surrounding work is fully independent, so the
		// machine is fetch-bound.
		for i := 0; i < 200; i++ {
			b.Li(regs[i%8], int64(i))
			b.Li(regs[(i+1)%8], int64(i+1))
			b.Br(isa.Bltz, prog.RegZero, isa.Zero, "never")
		}
		b.Halt()
		b.Label("never")
		b.Halt()
	}
	one := DefaultConfig()
	one.MaxBranchesPerFetch = 1
	mOne := runProg(t, build, one, "T4")
	mTwo := runProg(t, build, DefaultConfig(), "T4")
	if mTwo.Stats().Cycles >= mOne.Stats().Cycles {
		t.Fatalf("two predictions/cycle (%d cycles) not faster than one (%d cycles)",
			mTwo.Stats().Cycles, mOne.Stats().Cycles)
	}
}

// TestRegisterPlusRegisterAddressing: the paper's extended addressing
// mode computes base+index correctly through the pipeline.
func TestRegisterPlusRegisterAddressing(t *testing.T) {
	m := runProg(t, func(b *prog.Builder) {
		arr := b.Alloc("arr", 256, 8)
		_ = arr
		words := make([]uint64, 32)
		for i := range words {
			words[i] = uint64(i * 5)
		}
		b.SetWords(b.Addr("arr"), words)
		b.Alloc("out", 8, 8)
		base := b.IVar("base")
		idx := b.IVar("idx")
		v := b.IVar("v")
		sum := b.IVar("sum")
		o := b.IVar("o")
		b.La(base, "arr")
		b.Li(sum, 0)
		for i := 0; i < 8; i++ {
			b.Li(idx, int64(8*i*2))
			b.LdX(v, base, idx)
			b.Add(sum, sum, v)
		}
		b.La(o, "out")
		b.Sd(sum, o, 0)
		b.Halt()
	}, DefaultConfig(), "T4")
	var buf [8]byte
	if err := m.ReadVirt(prog.DataBase+256, buf[:]); err != nil {
		t.Fatal(err)
	}
	got := uint64(buf[0]) | uint64(buf[1])<<8
	want := uint64(0)
	for i := 0; i < 8; i++ {
		want += uint64(2 * i * 5)
	}
	if got != want {
		t.Fatalf("register+register sum = %d, want %d", got, want)
	}
}
