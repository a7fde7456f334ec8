// Package progen holds the programs the tests run: every workload
// (Workloads) and random but well-formed simulated programs for
// differential and fuzz testing: arithmetic over a handful of
// registers, loads and stores confined to a private buffer, forward
// (data-dependent) branches, bounded backward loops, and post-increment
// walks that stay in bounds. Every generated program halts.
//
// The generator is deterministic in its seed, and its "flavors" bias
// the opcode mix toward one class of pipeline hazard; the cpu package's
// lockstep fuzzing and the superblock engine's differential fuzzing
// both draw their corpora from it. Under prog.Budget8 the register
// allocator adds spill/reload traffic around the same instruction
// stream, which is exactly the paper's Figure 9 pressure.
package progen

import (
	"fmt"

	"hbat/internal/isa"
	"hbat/internal/prog"
)

// rng is the generator's deterministic xorshift state.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Flavor biases the generated opcode mix toward one hazard class.
type Flavor = uint8

// Generator flavors. Fuzz corpora seed one entry per flavor.
const (
	// FlavorMixed is a uniform mix (the original distribution).
	FlavorMixed Flavor = iota
	// FlavorMem is load/store heavy: store-forwarding and port pressure.
	FlavorMem
	// FlavorBranchy is branch heavy: wrong-path fetch and squash
	// recovery for the pipelines, short superblocks for the translated
	// engine.
	FlavorBranchy
	// NumFlavors bounds the flavor space; fuzzers reduce arbitrary
	// bytes into it with a modulus.
	NumFlavors
)

// opMix returns the op-case lottery for a flavor; duplicated entries
// raise that case's probability.
func opMix(flavor Flavor) []int {
	mixed := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	switch flavor {
	case FlavorMem:
		return append(mixed, 6, 7, 7, 8, 8, 8, 9, 7)
	case FlavorBranchy:
		return append(mixed, 11, 11, 11, 0, 11)
	}
	return mixed
}

// Generate builds a random program of roughly nInsts generated
// operations (plus prologue/epilogue), finalized under the given
// register budget. The final state is observable: every working
// register is stored to a "final" buffer before Halt.
func Generate(seed uint64, nInsts int, budget prog.RegBudget, flavor Flavor) (*prog.Program, error) {
	r := rng(seed | 1)
	mix := opMix(flavor % NumFlavors)
	b := prog.NewBuilder(fmt.Sprintf("fuzz%d", seed))
	const bufWords = 512
	b.Alloc("buf", bufWords*8, 8)

	base := b.IVar("base")
	walk := b.IVar("walk")
	var regs [6]isa.Reg
	for i := range regs {
		regs[i] = b.IVar(fmt.Sprintf("r%d", i))
	}
	b.La(base, "buf")
	b.La(walk, "buf")
	for i := range regs {
		b.Li(regs[i], int64(r.intn(1000)))
	}

	pick := func() isa.Reg { return regs[r.intn(len(regs))] }
	label := 0
	pendingLabel := -1
	walkBudget := 0
	loopCounter := b.IVar("loopctr")
	inLoop := false
	loopLabel := ""

	for i := 0; i < nInsts; i++ {
		if pendingLabel >= 0 && r.intn(4) == 0 {
			b.Label(fmt.Sprintf("skip%d", pendingLabel))
			pendingLabel = -1
		}
		// Occasionally open a bounded backward loop (counted, so the
		// program always terminates); close it a few instructions later.
		if !inLoop && pendingLabel < 0 && r.intn(24) == 0 {
			loopLabel = fmt.Sprintf("loop%d", label)
			label++
			b.Li(loopCounter, int64(2+r.intn(6)))
			b.Label(loopLabel)
			inLoop = true
		} else if inLoop && r.intn(6) == 0 {
			b.Addi(loopCounter, loopCounter, -1)
			b.Bgtz(loopCounter, loopLabel)
			inLoop = false
		}
		switch mix[r.intn(len(mix))] {
		case 0:
			b.Add(pick(), pick(), pick())
		case 1:
			b.Sub(pick(), pick(), pick())
		case 2:
			b.Xor(pick(), pick(), pick())
		case 3:
			b.Addi(pick(), pick(), int32(r.intn(2000)-1000))
		case 4:
			b.Sll(pick(), pick(), int32(r.intn(8)))
		case 5:
			b.Mult(pick(), pick(), pick())
		case 6:
			b.Ld(pick(), base, int32(r.intn(bufWords))*8)
		case 7:
			b.Sd(pick(), base, int32(r.intn(bufWords))*8)
		case 8:
			// Bounded post-increment walk: reset the pointer when the
			// budget runs out so it never leaves the buffer.
			if walkBudget == 0 {
				b.La(walk, "buf")
				walkBudget = bufWords / 2
			}
			if r.intn(2) == 0 {
				b.LdPost(pick(), walk, 8)
			} else {
				b.SdPost(pick(), walk, 8)
			}
			walkBudget--
		case 9:
			b.LwX(pick(), base, maskedIndex(b, pick(), bufWords))
		case 10:
			b.Div(pick(), pick(), pick())
		case 11:
			// Forward data-dependent branch over the next few
			// instructions (exercises prediction and squash).
			if pendingLabel < 0 {
				b.Bgtz(pick(), fmt.Sprintf("skip%d", label))
				pendingLabel = label
				label++
			} else {
				b.Addi(pick(), pick(), 1)
			}
		}
	}
	if inLoop {
		b.Addi(loopCounter, loopCounter, -1)
		b.Bgtz(loopCounter, loopLabel)
	}
	if pendingLabel >= 0 {
		b.Label(fmt.Sprintf("skip%d", pendingLabel))
	}
	// Make the final state observable: store every register.
	b.Alloc("final", uint64(8*len(regs)), 8)
	out := b.IVar("out")
	b.La(out, "final")
	for i, reg := range regs {
		b.Sd(reg, out, int32(8*i))
	}
	b.Halt()
	return b.Finalize(budget)
}

// maskedIndex emits a masked index: t = reg & mask (word-aligned, in
// range of the bufWords-word buffer).
func maskedIndex(b *prog.Builder, src isa.Reg, bufWords int) isa.Reg {
	t := b.IVar("idxTmp")
	b.Andi(t, src, int32(bufWords-1)*8)
	b.Andi(t, t, ^7)
	return t
}
