package workload

import "hbat/internal/prog"

func init() {
	register(&Workload{
		Name: "mpeg_play",
		Model: "mpeg_play decoding a 79-frame video: per-block IDCT-style " +
			"integer butterflies plus motion compensation that hops between " +
			"multi-megabyte reference and output frames — one of the paper's " +
			"three low-locality programs",
		Build: buildMPEG,
	})
}

// buildMPEG models the decoder's block loop: for each 8x8 block, an
// integer transform runs over a small block buffer, then motion
// compensation reads eight rows from a pseudo-random offset in the
// reference frame and writes eight rows into the output frame. The two
// frames together exceed what a 128-entry TLB maps, and block-to-block
// hops destroy page locality.
func buildMPEG(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("mpeg_play")

	frameBytes := scale.pick(256<<10, 512<<10, 768<<10)
	blocks := scale.pick(220, 1100, 3000)

	ref := b.Alloc("refframe", uint64(frameBytes), 8)
	out := b.Alloc("outframe", uint64(frameBytes), 8)
	mv := b.Alloc("mvecs", uint64(8*blocks), 8)
	blk := b.Alloc("block", 64*8, 8)
	b.Alloc("checksum", 8, 8)
	_ = out

	r := newRNG(0x3be9)
	// Reference frame content (sparse samples are enough; untouched
	// pages read as zero).
	refImg := b.Segment(ref, 8*4096)
	for i := 0; i < 4096; i++ {
		refImg.SetWord(i, r.next()&0x00ff00ff00ff00ff)
	}
	// Motion vectors: blocks decode in raster order, each referencing
	// the frame near its own position plus a small displacement (real
	// motion vectors span a few macroblocks, not the whole frame).
	// Successive blocks therefore stream through both frames while
	// still touching several distinct pages per block.
	mvs := b.Segment(mv, uint64(8*blocks))
	span := frameBytes - 32<<10
	for i := 0; i < blocks; i++ {
		pos := i * 1024 % span
		disp := r.intn(16 << 10) // up to ±16 KB of motion
		mvs.SetWord(i, uint64(pos+disp)&^7)
	}
	coef := b.Segment(blk, 64*8)
	for i := 0; i < 64; i++ {
		coef.SetWord(i, uint64(r.intn(256)))
	}

	pmv := b.IVar("pmv")
	pblk := b.IVar("pblk")
	pref := b.IVar("pref")
	pout := b.IVar("pout")
	off := b.IVar("off")
	nblk := b.IVar("nblk")
	i := b.IVar("i")
	v0 := b.IVar("v0")
	v1 := b.IVar("v1")
	s := b.IVar("s")
	d := b.IVar("d")
	acc := b.IVar("acc")
	t := b.IVar("t")

	b.Li(acc, 0)
	b.La(pmv, "mvecs")
	b.Li(nblk, int64(blocks))

	b.Label("block")
	// --- integer transform over the block buffer (two passes) ---
	b.La(pblk, "block")
	b.Li(i, 32)
	b.Label("idct1")
	b.Ld(v0, pblk, 0)
	b.Ld(v1, pblk, 256) // paired row 32 entries away
	b.Add(s, v0, v1)
	b.Sub(d, v0, v1)
	b.Sra(d, d, 1)
	b.Sd(s, pblk, 0)
	b.Sd(d, pblk, 256)
	b.Addi(pblk, pblk, 8)
	b.Addi(i, i, -1)
	b.Bgtz(i, "idct1")

	// --- motion compensation: copy 8 rows ref -> out at the vector ---
	b.LdPost(off, pmv, 8)
	b.La(pref, "refframe")
	b.Add(pref, pref, off)
	b.La(pout, "outframe")
	b.Add(pout, pout, off)
	b.La(pblk, "block")
	b.Li(i, 8)
	b.Label("mc")
	b.LdPost(v0, pref, 128) // row stride through the reference frame
	b.LdPost(v1, pblk, 8)
	b.Add(v0, v0, v1)
	b.Add(acc, acc, v0)
	b.SdPost(v0, pout, 128)
	b.Addi(i, i, -1)
	b.Bgtz(i, "mc")

	b.Addi(nblk, nblk, -1)
	b.Bgtz(nblk, "block")

	b.La(t, "checksum")
	b.Sd(acc, t, 0)
	b.Halt()
	return b.Finalize(budget)
}
