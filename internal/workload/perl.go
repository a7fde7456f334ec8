package workload

import "hbat/internal/prog"

func init() {
	register(&Workload{
		Name: "perl",
		Model: "Perl running its test suite: a bytecode interpreter loop " +
			"with indirect dispatch, VM stack traffic, and hash-table " +
			"operations; high store fraction and weak prediction (81.2%)",
		Build: buildPerl,
	})
}

// Interpreter opcodes of the synthetic VM.
const (
	pOpPush = iota
	pOpAdd
	pOpDup
	pOpHashPut
	pOpHashGet
	pOpXor
	pOpDrop
	pOpSwap
	pNumOps
)

// buildPerl models an interpreter: a bytecode array drives an indirect
// jump per instruction (the BTB's nemesis), operands flow through a
// memory-resident VM stack, and two opcodes hash into a 256 KB table.
// The dispatch misprediction rate dominates control behaviour, and the
// store fraction is the suite's highest after xlisp.
func buildPerl(budget prog.RegBudget, scale Scale) (*prog.Program, error) {
	b := prog.NewBuilder("perl")

	codeLen := scale.pick(1200, 6000, 24000)
	passes := scale.pick(2, 4, 4)
	hashWords := 32 << 10 // 256 KB

	bc := b.Alloc("bytecode", uint64(codeLen), 8)
	b.Alloc("vmstack", 8*1024, 8)
	b.Alloc("hash", uint64(8*hashWords), 8)
	b.Alloc("checksum", 8, 8)

	// Generate bytecode with stack-depth tracking so the VM stack
	// never underflows: the depth is kept in [2, 64].
	r := newRNG(0x9e71)
	code := b.Segment(bc, uint64(codeLen))
	depth := 0
	run := 0
	cur := pOpPush
	for i := 0; i < codeLen; i++ {
		// Real bytecode repeats opcodes in short runs (argument pushes,
		// list ops), which is what lets the BTB predict a fraction of
		// the indirect dispatches; perl's overall rate is ~81%.
		if run == 0 {
			cur = r.intn(pNumOps)
			run = 1 + r.intn(4)
		}
		run--
		op := cur
		switch {
		case depth < 2:
			op = pOpPush
		case depth > 60:
			op = []int{pOpDrop, pOpAdd, pOpHashPut}[r.intn(3)]
		}
		switch op {
		case pOpPush, pOpDup, pOpHashGet:
			depth++
		case pOpAdd, pOpDrop, pOpHashPut:
			depth--
		}
		code.SetByte(i, byte(op))
	}

	jt := b.JumpTable("dispatch",
		"opPush", "opAdd", "opDup", "opHashPut", "opHashGet", "opXor", "opDrop", "opSwap")
	_ = jt

	pc := b.IVar("pc")
	pend := b.IVar("pend")
	sp := b.IVar("vmsp") // VM stack pointer (memory-resident stack)
	ph := b.IVar("ph")
	pjt := b.IVar("pjt")
	op := b.IVar("op")
	a := b.IVar("a")
	c := b.IVar("c")
	hmask := b.IVar("hmask")
	pass := b.IVar("pass")
	seed := b.IVar("seed")
	t := b.IVar("t")

	b.La(ph, "hash")
	b.La(pjt, "dispatch")
	b.Li(hmask, int64(hashWords-1))
	b.Li(seed, 0x1234)
	b.Li(pass, int64(passes))

	b.Label("pass")
	b.La(pc, "bytecode")
	b.Li(t, int64(codeLen))
	b.Add(pend, pc, t)
	b.La(sp, "vmstack")

	b.Label("fetch")
	b.LbuPost(op, pc, 1)
	b.Sll(op, op, 3)
	b.LdX(op, pjt, op)
	b.Jr(op)

	b.Label("opPush")
	// Push a pseudo-random immediate.
	b.Sll(t, seed, 13)
	b.Xor(seed, seed, t)
	b.Srl(t, seed, 7)
	b.Xor(seed, seed, t)
	b.SdPost(seed, sp, 8)
	b.J("next")

	b.Label("opAdd")
	b.Addi(sp, sp, -8)
	b.Ld(a, sp, 0)
	b.Ld(c, sp, -8)
	b.Add(c, c, a)
	b.Sd(c, sp, -8)
	b.J("next")

	b.Label("opDup")
	b.Ld(a, sp, -8)
	b.SdPost(a, sp, 8)
	b.J("next")

	b.Label("opHashPut")
	b.Addi(sp, sp, -8)
	b.Ld(a, sp, 0)
	b.And(c, a, hmask)
	b.Sll(c, c, 3)
	b.Add(c, ph, c)
	b.Sd(a, c, 0)
	b.J("next")

	b.Label("opHashGet")
	b.Ld(a, sp, -8)
	b.And(c, a, hmask)
	b.Sll(c, c, 3)
	b.Add(c, ph, c)
	b.Ld(a, c, 0)
	b.SdPost(a, sp, 8)
	b.J("next")

	b.Label("opXor")
	b.Ld(a, sp, -8)
	b.Ld(c, sp, -16)
	b.Xor(a, a, c)
	b.Sd(a, sp, -8)
	b.J("next")

	b.Label("opDrop")
	b.Addi(sp, sp, -8)
	b.J("next")

	b.Label("opSwap")
	b.Ld(a, sp, -8)
	b.Ld(c, sp, -16)
	b.Sd(a, sp, -16)
	b.Sd(c, sp, -8)

	b.Label("next")
	b.Bne(pc, pend, "fetch")

	b.Addi(pass, pass, -1)
	b.Bgtz(pass, "pass")

	b.Ld(a, sp, -8)
	b.La(t, "checksum")
	b.Sd(a, t, 0)
	b.Halt()
	return b.Finalize(budget)
}
