package workload

import "hbat/internal/prog"

func init() {
	register(&Workload{
		Name: "compress",
		Model: "SPEC '92 compress: LZW compression; streaming input with " +
			"pseudo-random probes of a ~512 KB hash table, giving the poor " +
			"reference locality the paper highlights (Figure 6)",
		Build: buildCompress,
	})
}

// buildCompress models LZW compression: a byte stream is consumed
// sequentially while a rolling code hashes into a large table that is
// probed and updated. The streaming input has perfect spatial locality;
// the hash probes have almost none, which is what makes compress one of
// the paper's three low-locality programs.
func buildCompress(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("compress")

	inSize := scale.pick(3<<10, 24<<10, 72<<10)
	tabEntries := scale.pick(16<<10, 64<<10, 64<<10) // 8 bytes each

	inAddr := b.Alloc("input", uint64(inSize), 8)
	b.Alloc("htab", uint64(tabEntries*8), 8)
	b.Alloc("out", uint64(inSize*4), 8)
	b.Alloc("checksum", 8, 8)

	// Synthesize compressible input: runs of repeated bytes drawn from
	// a small alphabet so hash hits occur at a realistic rate.
	r := newRNG(0xc0357e55)
	in := b.Segment(inAddr, uint64(inSize))
	for i := 0; i < inSize; {
		ch := byte('a' + r.intn(16))
		run := 1 + r.intn(6)
		for j := 0; j < run && i < inSize; j++ {
			in.SetByte(i, ch)
			i++
		}
	}

	pin := b.IVar("pin")
	pend := b.IVar("pend")
	ptab := b.IVar("ptab")
	pout := b.IVar("pout")
	mask := b.IVar("mask")
	code := b.IVar("code")
	ch := b.IVar("ch")
	ent := b.IVar("ent")
	t1 := b.IVar("t1")
	t2 := b.IVar("t2")
	sum := b.IVar("sum")

	b.La(pin, "input")
	b.Li(t1, int64(inSize))
	b.Add(pend, pin, t1)
	b.La(ptab, "htab")
	b.La(pout, "out")
	b.Li(mask, int64(tabEntries-1))
	b.Li(code, 0)
	b.Li(sum, 0)

	b.Label("loop")
	b.LbuPost(ch, pin, 1)
	// Rolling hash of (code, ch).
	b.Sll(t1, code, 4)
	b.Xor(t1, t1, ch)
	b.And(code, t1, mask)
	// Probe the table: ent = htab[code].
	b.Sll(t1, code, 3)
	b.Add(t1, ptab, t1)
	b.Ld(ent, t1, 0)
	b.Beq(ent, code, "found")
	// Miss: insert and emit the previous code.
	b.Sd(code, t1, 0)
	b.SwPost(code, pout, 4)
	b.Add(sum, sum, code)
	b.J("next")
	b.Label("found")
	// Hit: extend the current string (reuse the matched code).
	b.Add(code, code, ch)
	b.And(code, code, mask)
	b.Label("next")
	b.Bne(pin, pend, "loop")

	b.La(t2, "checksum")
	b.Sd(sum, t2, 0)
	b.Halt()
	return b.Finalize(budget)
}
