package workload

import "hbat/internal/prog"

func init() {
	register(&Workload{
		Name: "tomcatv",
		Model: "SPEC '92 tomcatv (N=129): vectorized mesh generation; " +
			"row-wise stencil sweeps over 2-D float64 arrays with strong " +
			"spatial locality and near-perfect inner-loop prediction",
		Build: buildTomcatv,
	})
}

// buildTomcatv models the mesh-generation sweeps: five-point stencils
// read neighboring rows of 129-wide float64 arrays and write residual
// arrays, streaming row by row. Locality is excellent at both cache and
// page granularity, and the loop bounds make branches nearly free.
func buildTomcatv(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("tomcatv")

	const nCols = 129
	rowBytes := int64(8 * nCols)
	nRows := scale.pick(33, 129, 129)
	sweeps := scale.pick(1, 2, 6)

	xA := b.Alloc("X", uint64(rowBytes)*uint64(nRows), 8)
	yA := b.Alloc("Y", uint64(rowBytes)*uint64(nRows), 8)
	b.Alloc("RX", uint64(rowBytes)*uint64(nRows), 8)
	b.Alloc("RY", uint64(rowBytes)*uint64(nRows), 8)
	b.Alloc("checksum", 8, 8)

	r := newRNG(0x70 << 4)
	gx := b.Segment(xA, uint64(8*nCols*nRows))
	for i := 0; i < nCols*nRows; i++ {
		gx.SetFloat(i, r.float())
	}
	gy := b.Segment(yA, uint64(8*nCols*nRows))
	for i := 0; i < nCols*nRows; i++ {
		gy.SetFloat(i, r.float()*0.5)
	}

	px := b.IVar("px")
	py := b.IVar("py")
	prx := b.IVar("prx")
	pry := b.IVar("pry")
	row := b.IVar("row")
	col := b.IVar("col")
	sweep := b.IVar("sweep")
	t := b.IVar("t")

	xc := b.FVar("xc")
	xw := b.FVar("xw")
	xe := b.FVar("xe")
	xn := b.FVar("xn")
	xs := b.FVar("xs")
	yc := b.FVar("yc")
	rx := b.FVar("rx")
	ry := b.FVar("ry")
	qtr := b.FVar("qtr")
	acc := b.FVar("acc")

	b.LiF(qtr, 0.25)
	b.LiF(acc, 0.0)
	b.Li(sweep, int64(sweeps))

	b.Label("sweep")
	// Interior rows 1..nRows-2; pointers start at row 1, column 1.
	b.La(px, "X")
	b.La(py, "Y")
	b.La(prx, "RX")
	b.La(pry, "RY")
	b.Addi(px, px, int32(rowBytes+8))
	b.Addi(py, py, int32(rowBytes+8))
	b.Addi(prx, prx, int32(rowBytes+8))
	b.Addi(pry, pry, int32(rowBytes+8))
	b.Li(row, int64(nRows-2))

	b.Label("row")
	b.Li(col, nCols-2)
	b.Label("col")
	// Five-point stencil on X, plus the Y center point.
	b.LdF(xc, px, 0)
	b.LdF(xw, px, -8)
	b.LdF(xe, px, 8)
	b.LdF(xn, px, int32(-rowBytes))
	b.LdF(xs, px, int32(rowBytes))
	b.LdF(yc, py, 0)
	b.AddF(rx, xw, xe)
	b.AddF(rx, rx, xn)
	b.AddF(rx, rx, xs)
	b.MulF(rx, rx, qtr)
	b.SubF(rx, rx, xc)
	b.MulF(ry, rx, yc)
	b.AddF(acc, acc, rx)
	b.StFPost(rx, prx, 8)
	b.StFPost(ry, pry, 8)
	b.Addi(px, px, 8)
	b.Addi(py, py, 8)
	b.Addi(col, col, -1)
	b.Bgtz(col, "col")
	// Advance past the border columns to the next row's column 1.
	b.Addi(px, px, 16)
	b.Addi(py, py, 16)
	b.Addi(prx, prx, 16)
	b.Addi(pry, pry, 16)
	b.Addi(row, row, -1)
	b.Bgtz(row, "row")

	b.Addi(sweep, sweep, -1)
	b.Bgtz(sweep, "sweep")

	b.La(t, "checksum")
	b.StF(acc, t, 0)
	b.Halt()
	return b.Finalize(budget)
}
