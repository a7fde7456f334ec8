package workload

import "hbat/internal/prog"

func init() {
	register(&Workload{
		Name: "ghostscript",
		Model: "Ghostscript rendering a text+graphics page to PPM: span " +
			"fills streaming stores across a ~4 MB raster with small " +
			"path/font reads, highly predictable control (93.3%)",
		Build: buildGhostscript,
	})
}

// buildGhostscript models the rasterizer: for each span of each row, a
// color is computed from a small path table and written as a burst of
// word stores into a large frame buffer. Stores stream with strong
// spatial locality (ideal for piggybacking and pretranslation); the
// raster itself is large, so the TLB footprint is dominated by
// sequential page walks.
func buildGhostscript(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("ghostscript")

	rowWords := 256 // 2 KB per row
	rows := scale.pick(48, 384, 1024)
	spans := 8 // spans per row

	raster := b.Alloc("raster", uint64(8*rowWords*rows), 8)
	pathTab := b.Alloc("paths", uint64(8*spans*4), 8)
	pattern := b.Alloc("pattern", uint64(8*rowWords), 8)
	b.Alloc("checksum", 8, 8)
	_ = raster

	r := newRNG(0x905757)
	pt := b.Segment(pathTab, uint64(8*spans*4))
	for i := 0; i < spans*4; i++ {
		pt.SetWord(i, r.next()&0x00ffffff)
	}
	hp := b.Segment(pattern, uint64(8*rowWords))
	for i := 0; i < rowWords; i++ {
		hp.SetWord(i, r.next())
	}

	prow := b.IVar("prow")
	pp := b.IVar("pp")
	row := b.IVar("row")
	span := b.IVar("span")
	wleft := b.IVar("wleft")
	color := b.IVar("color")
	base := b.IVar("base")
	ppat := b.IVar("ppat")
	blend := b.IVar("blend")
	acc := b.IVar("acc")
	t := b.IVar("t")

	b.Li(acc, 0)
	b.La(prow, "raster")
	b.Li(row, int64(rows))

	b.Label("row")
	b.La(pp, "paths")
	b.La(ppat, "pattern")
	b.Li(span, int64(spans))

	b.Label("span")
	// Fetch span parameters and blend a color.
	b.LdPost(base, pp, 8)
	b.LdPost(blend, pp, 8)
	b.LdPost(color, pp, 8)
	b.LdPost(t, pp, 8)
	b.Xor(color, color, blend)
	b.Add(color, color, base)
	b.Add(acc, acc, color)
	// Fill rowWords/spans words with the color, four stores per
	// iteration at fixed offsets (the compiler's unrolled span fill):
	// all four issue in one cycle and hit the same page — the access
	// pattern piggybacking and pretranslation exploit.
	b.Li(wleft, int64(rowWords/spans/4))
	b.Label("fill")
	// Blend the halftone pattern into the color (one read plus a
	// little arithmetic per burst, like a real span blitter).
	b.Ld(t, ppat, 0)
	b.Addi(ppat, ppat, 8)
	b.Andi(t, t, 0x7fff)
	b.Xor(color, color, t)
	b.Sd(color, prow, 0)
	b.Sd(color, prow, 8)
	b.Sd(color, prow, 16)
	b.Sd(color, prow, 24)
	b.Addi(prow, prow, 32)
	b.Addi(color, color, 1) // dithering tweak keeps stores distinct
	b.Addi(wleft, wleft, -1)
	b.Bgtz(wleft, "fill")
	b.Addi(span, span, -1)
	b.Bgtz(span, "span")

	b.Addi(row, row, -1)
	b.Bgtz(row, "row")

	b.La(t, "checksum")
	b.Sd(acc, t, 0)
	b.Halt()
	return b.Finalize(budget)
}
