package workload

import "hbat/internal/prog"

func init() {
	register(&Workload{
		Name: "doduc",
		Model: "SPEC '92 doduc: Monte Carlo nuclear-reactor simulation; " +
			"long floating-point dependence chains with occasional divides " +
			"over a small data set, low memory traffic, ~87% predictable branches",
		Build: buildDoduc,
	})
}

// buildDoduc models doduc's character: dominantly floating-point work
// with serial dependence chains (polynomial/transcendental kernels),
// a compact working set that caches and translates well, and
// moderately predictable data-dependent branches.
func buildDoduc(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("doduc")

	// doduc's working set is small and heavily reused: the three arrays
	// together fit in the 32 KB L1 data cache.
	elems := scale.pick(512, 1024, 1024) // float64s per array
	iters := scale.pick(2, 18, 50)

	aAddr := b.Alloc("a", uint64(8*elems), 8)
	cAddr := b.Alloc("c", uint64(8*elems), 8)
	br := b.Alloc("branchdata", uint64(elems), 8)
	b.Alloc("out", uint64(8*elems), 8)
	b.Alloc("checksum", 8, 8)

	r := newRNG(0xd0d0c)
	av := b.Segment(aAddr, uint64(8*elems))
	cv := b.Segment(cAddr, uint64(8*elems))
	bd := b.Segment(br, uint64(elems))
	for i := 0; i < elems; i++ {
		av.SetFloat(i, 0.25+r.float())
		cv.SetFloat(i, 0.5+r.float()*0.5)
		if r.float() < 0.12 { // occasional divide iterations
			bd.SetByte(i, 1)
		}
	}

	pa := b.IVar("pa")
	pc := b.IVar("pc")
	pb := b.IVar("pb")
	po := b.IVar("po")
	n := b.IVar("n")
	outer := b.IVar("outer")
	flag := b.IVar("flag")
	t := b.IVar("t")

	x := b.FVar("x")
	y := b.FVar("y")
	z := b.FVar("z")
	acc := b.FVar("acc")
	half := b.FVar("half")
	one := b.FVar("one")

	b.LiF(half, 0.5)
	b.LiF(one, 1.0)
	b.MovF(acc, one)
	b.Li(outer, int64(iters))

	b.Label("outer")
	b.La(pa, "a")
	b.La(pc, "c")
	b.La(pb, "branchdata")
	b.La(po, "out")
	b.Li(n, int64(elems))

	b.Label("loop")
	b.LdFPost(x, pa, 8)
	b.LdFPost(y, pc, 8)
	// Horner-style chain: z = ((x*y + 0.5)*x + y)*0.5
	b.MulF(z, x, y)
	b.AddF(z, z, half)
	b.MulF(z, z, x)
	b.AddF(z, z, y)
	b.MulF(z, z, half)
	b.LbuPost(flag, pb, 1)
	b.Bne(flag, prog.RegZero, "dodiv")
	b.AddF(z, z, x)
	b.MulF(z, z, half)
	b.J("accum")
	b.Label("dodiv")
	// Occasional reciprocal refinement with a real divide.
	b.DivF(z, one, z)
	b.AddF(z, z, half)
	b.Label("accum")
	b.AddF(acc, acc, z)
	b.StFPost(z, po, 8)
	b.Addi(n, n, -1)
	b.Bgtz(n, "loop")

	b.Addi(outer, outer, -1)
	b.Bgtz(outer, "outer")

	b.La(t, "checksum")
	b.StF(acc, t, 0)
	b.Halt()
	return b.Finalize(budget)
}
