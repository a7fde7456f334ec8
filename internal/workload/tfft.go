package workload

import (
	"math"

	"hbat/internal/prog"
)

func init() {
	register(&Workload{
		Name: "tfft",
		Model: "TFFT: real/complex FFTs over a randomly generated data set " +
			"(the paper's largest footprint, ~40 MB); bit-reversal and " +
			"large-stride butterfly passes give the worst TLB behaviour in " +
			"the suite",
		Build: buildTFFT,
	})
}

// buildTFFT models the FFT kernel: a bit-reversal permutation of an
// interleaved complex array followed by butterfly passes at
// geometrically growing strides, with twiddle factors loaded from a
// precomputed table. The permutation's scattered exchanges and the
// large-stride passes touch pages with almost no reuse — TFFT is the
// paper's canonical TLB-hostile program.
func buildTFFT(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("tfft")

	logN := uint(scale.pick(10, 13, 15))
	n := 1 << logN // complex elements; 16 bytes each

	data := b.Alloc("data", uint64(16*n), 8)
	revTab := b.Alloc("revtab", uint64(8*n), 8)
	twid := b.Alloc("twiddle", uint64(16*n/2), 8)
	plan := b.Alloc("passplan", 8*2*8+8, 8)
	b.Alloc("checksum", 8, 8)

	// Pass plan: which butterfly passes to run. Running every pass of
	// the transform would dwarf the rest of the suite, so the kernel
	// executes a representative subset — the first small-stride passes
	// plus the final large-stride pass (the TLB-hostile one) — chosen
	// host-side. Entries are (partner distance, twiddle step) in bytes,
	// zero-terminated.
	smallPasses := scale.pick(2, 2, 3)
	var planWords []uint64
	half0, step0 := uint64(16), uint64(n/2*16)
	for p := 0; p < smallPasses; p++ {
		planWords = append(planWords, half0, step0)
		half0 <<= 1
		step0 >>= 1
	}
	planWords = append(planWords, uint64(16*n/2), 16, 0)
	b.SetWords(plan, planWords)

	// Input samples and helper tables (host-side precomputation mirrors
	// TFFT's own table setup, which is not the measured kernel).
	r := newRNG(0x7FF7)
	samples := b.Segment(data, uint64(16*n))
	for i := 0; i < 2*n; i++ {
		samples.SetFloat(i, r.float()*2-1)
	}

	rev := b.Segment(revTab, uint64(8*n))
	for i := 0; i < n; i++ {
		v := 0
		for bit := uint(0); bit < logN; bit++ {
			if i&(1<<bit) != 0 {
				v |= 1 << (logN - 1 - bit)
			}
		}
		rev.SetWord(i, uint64(v)*16) // byte offset of the partner element
	}

	tw := b.Segment(twid, uint64(8*n))
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw.SetFloat(2*k, math.Cos(ang))
		tw.SetFloat(2*k+1, math.Sin(ang))
	}

	pd := b.IVar("pd")
	prv := b.IVar("prv")
	ptw := b.IVar("ptw")
	i := b.IVar("i")
	j := b.IVar("j")
	half := b.IVar("half")
	stride := b.IVar("stride")
	pa := b.IVar("pa")
	pb := b.IVar("pb")
	grp := b.IVar("grp")
	tmp := b.IVar("tmp")
	twoff := b.IVar("twoff")
	twstep := b.IVar("twstep")

	ar := b.FVar("ar")
	ai := b.FVar("ai")
	br2 := b.FVar("br")
	bi := b.FVar("bi")
	wr := b.FVar("wr")
	wi := b.FVar("wi")
	tr := b.FVar("tr")
	ti := b.FVar("ti")
	u := b.FVar("u")

	// --- bit-reversal permutation (swap when partner > self) ---
	b.La(pd, "data")
	b.La(prv, "revtab")
	b.Li(i, 0)
	b.Label("bitrev")
	b.LdPost(j, prv, 8) // partner byte offset
	b.Sll(tmp, i, 4)    // own byte offset
	b.Sltu(grp, tmp, j)
	b.Beq(grp, prog.RegZero, "noswap")
	b.Add(pa, pd, tmp)
	b.Add(pb, pd, j)
	b.LdF(ar, pa, 0)
	b.LdF(ai, pa, 8)
	b.LdF(br2, pb, 0)
	b.LdF(bi, pb, 8)
	b.StF(br2, pa, 0)
	b.StF(bi, pa, 8)
	b.StF(ar, pb, 0)
	b.StF(ai, pb, 8)
	b.Label("noswap")
	b.Addi(i, i, 1)
	b.Li(tmp, int64(n))
	b.Bne(i, tmp, "bitrev")

	// --- butterfly passes from the host-computed plan ---
	pplan := b.IVar("pplan")
	b.La(pplan, "passplan")

	b.Label("pass")
	b.LdPost(half, pplan, 8)
	b.Beq(half, prog.RegZero, "fftdone")
	b.LdPost(twstep, pplan, 8)
	b.Sll(stride, half, 1) // group stride = 2*half
	b.La(pa, "data")
	b.Li(grp, 0)

	b.Label("group")
	b.Li(twoff, 0)
	b.Move(j, half)

	b.Label("bfly")
	b.Add(pb, pa, half)
	b.LdF(ar, pa, 0)
	b.LdF(ai, pa, 8)
	b.LdF(br2, pb, 0)
	b.LdF(bi, pb, 8)
	b.La(ptw, "twiddle")
	b.Add(ptw, ptw, twoff)
	b.LdF(wr, ptw, 0)
	b.LdF(wi, ptw, 8)
	// t = w * b (complex)
	b.MulF(tr, wr, br2)
	b.MulF(u, wi, bi)
	b.SubF(tr, tr, u)
	b.MulF(ti, wr, bi)
	b.MulF(u, wi, br2)
	b.AddF(ti, ti, u)
	// a' = a + t ; b' = a - t
	b.AddF(u, ar, tr)
	b.StF(u, pa, 0)
	b.AddF(u, ai, ti)
	b.StF(u, pa, 8)
	b.SubF(u, ar, tr)
	b.StF(u, pb, 0)
	b.SubF(u, ai, ti)
	b.StF(u, pb, 8)
	b.Add(twoff, twoff, twstep)
	b.Addi(pa, pa, 16)
	b.Addi(j, j, -16)
	b.Bgtz(j, "bfly")

	b.Add(pa, pa, half) // skip the partner half of this group
	b.Add(grp, grp, stride)
	b.Li(tmp, int64(16*n))
	b.Bne(grp, tmp, "group")

	b.J("pass")
	b.Label("fftdone")

	// Checksum: first element after the transform.
	b.La(pd, "data")
	b.LdF(ar, pd, 0)
	b.La(tmp, "checksum")
	b.StF(ar, tmp, 0)
	b.Halt()
	return b.Finalize(budget)
}
