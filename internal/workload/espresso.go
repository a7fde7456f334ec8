package workload

import "hbat/internal/prog"

func init() {
	register(&Workload{
		Name: "espresso",
		Model: "SPEC '92 espresso: two-level logic minimization; wide " +
			"bit-set (cube) operations over a compact table with high ILP " +
			"and good locality (the paper's highest issue rate, 4.48 ops/cycle)",
		Build: buildEspresso,
	})
}

// buildEspresso models espresso's cube operations: rows of 64-bit words
// are intersected, unioned, and tested for emptiness with unrolled
// word-parallel loops. The working set is small and regular, so both
// cache and TLB behave essentially perfectly — espresso is one of the
// paper's high-IPC, high-locality programs.
func buildEspresso(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("espresso")

	const wordsPerCube = 16 // 128 bytes per cube
	cubes := scale.pick(64, 192, 256)
	passes := scale.pick(2, 8, 24)

	covA := b.Alloc("covA", uint64(8*wordsPerCube*cubes), 8)
	covB := b.Alloc("covB", uint64(8*wordsPerCube*cubes), 8)
	b.Alloc("covOut", uint64(8*wordsPerCube*cubes), 8)
	b.Alloc("checksum", 8, 8)

	r := newRNG(0xe59e550)
	wa := b.Segment(covA, uint64(8*wordsPerCube*cubes))
	wb := b.Segment(covB, uint64(8*wordsPerCube*cubes))
	for i := 0; i < wordsPerCube*cubes; i++ {
		wa.SetWord(i, r.next()|r.next()) // biased toward ones
		wb.SetWord(i, r.next()&r.next()) // biased toward zeros
	}
	// ~30% of cubes are disjoint from their partner, so the non-empty
	// tally branch is data-dependent (espresso's rate is ~90%).
	for c := 0; c < cubes; c++ {
		if r.intn(10) < 3 {
			for w := 0; w < wordsPerCube; w++ {
				wb.SetWord(c*wordsPerCube+w, 0)
			}
		}
	}

	pa := b.IVar("pa")
	pb := b.IVar("pb")
	po := b.IVar("po")
	cube := b.IVar("cube")
	w := b.IVar("w")
	va := b.IVar("va")
	vb := b.IVar("vb")
	vi := b.IVar("vi")
	vu := b.IVar("vu")
	nonEmpty := b.IVar("nonempty")
	pass := b.IVar("pass")
	count := b.IVar("count")
	t := b.IVar("t")

	b.Li(count, 0)
	b.Li(pass, int64(passes))
	b.Label("pass")
	b.La(pa, "covA")
	b.La(pb, "covB")
	b.La(po, "covOut")
	b.Li(cube, int64(cubes))

	b.Label("cube")
	b.Li(nonEmpty, 0)
	b.Li(w, wordsPerCube/2)
	b.Label("words")
	// Two-way unrolled: intersection to covOut, union feedback to covA.
	b.LdPost(va, pa, 8)
	b.LdPost(vb, pb, 8)
	b.And(vi, va, vb)
	b.Or(vu, va, vb)
	b.Or(nonEmpty, nonEmpty, vi)
	b.SdPost(vi, po, 8)
	b.Sd(vu, pa, -8)
	b.LdPost(va, pa, 8)
	b.LdPost(vb, pb, 8)
	b.And(vi, va, vb)
	b.Or(vu, va, vb)
	b.Or(nonEmpty, nonEmpty, vi)
	b.SdPost(vi, po, 8)
	b.Sd(vu, pa, -8)
	b.Addi(w, w, -1)
	b.Bgtz(w, "words")
	// Tally non-empty intersections (data-dependent, mostly taken).
	b.Beq(nonEmpty, prog.RegZero, "empty")
	b.Addi(count, count, 1)
	b.Label("empty")
	b.Addi(cube, cube, -1)
	b.Bgtz(cube, "cube")

	b.Addi(pass, pass, -1)
	b.Bgtz(pass, "pass")

	b.La(t, "checksum")
	b.Sd(count, t, 0)
	b.Halt()
	return b.Finalize(budget)
}
