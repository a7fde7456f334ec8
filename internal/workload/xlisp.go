package workload

import "hbat/internal/prog"

func init() {
	register(&Workload{
		Name: "xlisp",
		Model: "SPEC '92 xlisp (li) interpreting li-input.lsp: cons-cell " +
			"pointer chasing, list construction, and a mark-phase sweep; " +
			"the suite's highest memory traffic (1.86 issued refs/cycle)",
		Build: buildXlisp,
	})
}

// xlispCellBytes is one cons cell: car, cdr, and a mark/tag word.
const xlispCellBytes = 24

// buildXlisp models the interpreter's heap behaviour: lists whose cells
// were allocated with churn (so cdr chains hop around a megabyte-scale
// heap), an evaluation walk that chases car/cdr with data-dependent
// branching, and a garbage-collector mark pass that rewrites the tag
// word of every live cell — read-modify-write stores at high density.
func buildXlisp(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("xlisp")

	cells := scale.pick(2<<10, 16<<10, 40<<10)
	evals := scale.pick(2, 3, 5)

	heap := b.Alloc("heap", uint64(xlispCellBytes*cells), 8)
	b.Alloc("checksum", 8, 8)

	// Build several interleaved lists with allocation churn: cell i of
	// list k is placed with a bounded shuffle, cdr pointing to the next
	// cell of the same list, car holding a small integer or (for ~20%)
	// a pointer into another list (shared structure).
	r := newRNG(0x115b)
	order := make([]int32, cells) // cell index: half the bytes of []int
	for i := range order {
		order[i] = int32(i)
	}
	for i := range order {
		j := i + r.intn(256)
		if j >= cells {
			j = cells - 1
		}
		order[i], order[j] = order[j], order[i]
	}
	const nLists = 4
	img := b.Segment(heap, uint64(xlispCellBytes*cells))
	heads := make([]uint64, nLists)
	perList := cells / nLists
	cellAddr := func(i int) uint64 { return heap + uint64(order[i])*xlispCellBytes }
	for k := 0; k < nLists; k++ {
		base := k * perList
		heads[k] = cellAddr(base)
		for i := 0; i < perList; i++ {
			// The cell's first word (car), then cdr.
			w := int(order[base+i]) * xlispCellBytes / 8
			car := uint64(r.intn(1024))<<1 | 1 // tagged fixnum
			if r.intn(5) == 0 && i > 0 {
				car = cellAddr(base + r.intn(i)) // pointer into this list
			}
			cdr := uint64(0)
			if i+1 < perList {
				cdr = cellAddr(base + i + 1)
			}
			img.SetWord(w, car)
			img.SetWord(w+1, cdr)
		}
	}
	roots := b.Alloc("roots", uint64(8*nLists), 8)
	b.SetWords(roots, heads)

	p := b.IVar("p")
	car := b.IVar("car")
	acc := b.IVar("acc")
	mark := b.IVar("mark")
	proot := b.IVar("proot")
	lst := b.IVar("lst")
	ev := b.IVar("ev")
	tag := b.IVar("tag")
	t := b.IVar("t")

	b.Li(acc, 0)
	b.Li(mark, 1)
	b.Li(ev, int64(evals))

	b.Label("eval")
	b.La(proot, "roots")
	b.Li(lst, nLists)

	b.Label("list")
	b.LdPost(p, proot, 8)

	b.Label("walk")
	b.Ld(car, p, 0)
	// Tagged fixnum or pointer? (low bit set = fixnum)
	b.Andi(tag, car, 1)
	b.Beq(tag, prog.RegZero, "isptr")
	b.Sra(car, car, 1)
	b.Add(acc, acc, car)
	b.J("markcell")
	b.Label("isptr")
	// Shared structure: peek one level into the referenced cell.
	b.Ld(t, car, 0)
	b.Xor(acc, acc, t)
	b.Label("markcell")
	// GC-style mark: read-modify-write of the tag word.
	b.Ld(tag, p, 16)
	b.Add(tag, tag, mark)
	b.Sd(tag, p, 16)
	b.Ld(p, p, 8) // cdr
	b.Bne(p, prog.RegZero, "walk")

	b.Addi(lst, lst, -1)
	b.Bgtz(lst, "list")

	b.Addi(ev, ev, -1)
	b.Bgtz(ev, "eval")

	b.La(t, "checksum")
	b.Sd(acc, t, 0)
	b.Halt()
	return b.Finalize(budget)
}
