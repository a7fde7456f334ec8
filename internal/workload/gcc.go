package workload

import "hbat/internal/prog"

func init() {
	register(&Workload{
		Name: "gcc",
		Model: "SPEC '92 gcc (cc1): RTL manipulation; pointer-chasing over " +
			"heap-allocated insn nodes with type dispatch through a jump " +
			"table, a high store fraction, and the suite's worst branch " +
			"prediction (80.2%)",
		Build: buildGCC,
	})
}

// gccNodeBytes is the size of one synthetic RTL node: next pointer,
// kind, two operand words, and a scratch field the passes update.
const gccNodeBytes = 40

// buildGCC models cc1's insn-list walks: a linked list of nodes laid
// out with deliberately shuffled order (allocation churn), each visit
// dispatching on the node kind through a jump table and rewriting node
// fields. Irregular control plus pointer loads whose targets hop around
// a megabyte-scale arena give gcc its mediocre prediction and locality.
func buildGCC(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("gcc")

	nodes := scale.pick(2<<10, 8<<10, 11<<10)
	passes := scale.pick(2, 4, 8)

	arena := b.Alloc("arena", uint64(gccNodeBytes*nodes), 8)
	b.Alloc("checksum", 8, 8)

	// Build the node graph host-side: a permutation with a bounded
	// shuffle window, so successive nodes are usually nearby (arena
	// churn) but regularly jump far (freshly allocated subtrees).
	r := newRNG(0x9cc)
	order := make([]int32, nodes) // node index: half the bytes of []int
	for i := range order {
		order[i] = int32(i)
	}
	const window = 512
	for i := range order {
		j := i + r.intn(window)
		if r.intn(16) == 0 {
			j = i + r.intn(nodes-i) // occasional long hop
		}
		if j >= nodes {
			j = nodes - 1
		}
		order[i], order[j] = order[j], order[i]
	}
	img := b.Segment(arena, uint64(gccNodeBytes*nodes))
	prevKind := uint64(3)
	for i := 0; i < nodes; i++ {
		w := int(order[i]) * gccNodeBytes / 8 // the node's first word
		next := uint64(0)
		if i+1 < nodes {
			next = arena + uint64(order[i+1])*gccNodeBytes
		}
		// Kind distribution mirrors RTL: arithmetic and register
		// references dominate, calls and notes are rare, and similar
		// insns cluster (basic blocks), so the BTB predicts roughly
		// half the indirect dispatches — gcc's overall rate is ~80%.
		if r.intn(100) >= 55 { // 45% persistence
			kindDist := [...]uint64{3, 3, 3, 0, 0, 0, 0, 1, 1, 2, 2, 4, 5, 5, 6, 7}
			prevKind = kindDist[r.intn(len(kindDist))]
		}
		img.SetWord(w+1, prevKind)
		img.SetWord(w, next)
		img.SetWord(w+2, r.next()%1024) // op1
		img.SetWord(w+3, r.next()%1024) // op2
	}
	head := arena + uint64(order[0])*gccNodeBytes

	jt := b.JumpTable("kinds",
		"kReg", "kMem", "kConst", "kPlus", "kMult", "kJumpInsn", "kCall", "kNote")
	_ = jt

	p := b.IVar("p")
	kind := b.IVar("kind")
	op1 := b.IVar("op1")
	op2 := b.IVar("op2")
	acc := b.IVar("acc")
	tgt := b.IVar("tgt")
	pjt := b.IVar("pjt")
	pass := b.IVar("pass")
	t := b.IVar("t")

	b.Li(acc, 0)
	b.La(pjt, "kinds")
	b.Li(pass, int64(passes))

	b.Label("pass")
	b.Li(p, int64(head))

	b.Label("walk")
	b.Ld(kind, p, 8)
	b.Ld(op1, p, 16)
	b.Sll(tgt, kind, 3)
	b.LdX(tgt, pjt, tgt)
	b.Jr(tgt)

	// Kind handlers: each folds the node into acc and rewrites the
	// scratch field (gcc's high store fraction), then rejoins.
	b.Label("kReg")
	b.Add(acc, acc, op1)
	b.Sd(acc, p, 32)
	b.J("advance")
	b.Label("kMem")
	b.Ld(op2, p, 24)
	b.Add(acc, acc, op2)
	b.Sd(op2, p, 32)
	b.J("advance")
	b.Label("kConst")
	b.Xor(acc, acc, op1)
	b.Sd(op1, p, 32)
	b.J("advance")
	b.Label("kPlus")
	b.Ld(op2, p, 24)
	b.Add(op1, op1, op2)
	b.Sd(op1, p, 16)
	b.Add(acc, acc, op1)
	b.J("advance")
	b.Label("kMult")
	b.Ld(op2, p, 24)
	b.Mult(op1, op1, op2)
	b.Sd(op1, p, 32)
	b.Add(acc, acc, op1)
	b.J("advance")
	b.Label("kJumpInsn")
	b.Slti(op2, op1, 512) // data-dependent, poorly predicted
	b.Beq(op2, prog.RegZero, "jiSkip")
	b.Addi(acc, acc, 3)
	b.Label("jiSkip")
	b.Sd(acc, p, 32)
	b.J("advance")
	b.Label("kCall")
	b.Jal("leafFn")
	b.Sd(acc, p, 32)
	b.J("advance")
	b.Label("kNote")
	b.Sd(prog.RegZero, p, 32)

	b.Label("advance")
	b.Ld(p, p, 0)
	b.Bne(p, prog.RegZero, "walk")

	b.Addi(pass, pass, -1)
	b.Bgtz(pass, "pass")

	b.La(t, "checksum")
	b.Sd(acc, t, 0)
	b.Halt()

	// A tiny out-of-line callee (register save/restore traffic).
	b.Label("leafFn")
	b.Addi(acc, acc, 7)
	b.Ret()

	return b.Finalize(budget)
}
