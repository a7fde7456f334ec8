package prog

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hbat/internal/isa"
	"hbat/internal/vm"
)

// intPool is the ordered set of physical integer registers the
// allocator may assign. $zero is hardwired, $sp/$gp/$ra are structural
// (stack, globals, calls) and never allocated to program variables.
var intPool = []isa.Reg{
	isa.AT, isa.V0, isa.V1,
	isa.A0, isa.A1, isa.A2, isa.A3,
	isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6, isa.T7,
	isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7,
	isa.T8, isa.T9, isa.K0, isa.K1, isa.FP,
}

const (
	// spillScratchInt is how many integer scratch registers spill
	// rewriting needs in the worst case (a register+register store
	// reads three registers).
	spillScratchInt = 3
	// spillScratchFP is the FP worst case (two sources; a spilled
	// destination reuses a source scratch, since reads precede the
	// write within one instruction).
	spillScratchFP = 2

	// spillBaseOff is the first spill slot's offset from $sp.
	spillBaseOff = 16
)

// structuralInt counts the integer registers excluded from allocation
// but charged to the budget ($sp, $gp, $ra; $zero is free).
const structuralInt = 3

type allocation struct {
	phys  map[isa.Reg]isa.Reg // virtual -> physical (residents)
	slot  map[isa.Reg]int32   // virtual -> $sp offset (spilled)
	intSc []isa.Reg           // integer scratch registers
	fpSc  []isa.Reg           // FP scratch registers
}

// planAlloc decides, per register file, which virtual registers live in
// physical registers and which live in stack slots, favoring the most
// statically used registers (a crude but faithful stand-in for the
// priority-based coloring of the era's compilers).
func (b *Builder) planAlloc(budget RegBudget) (*allocation, error) {
	uses := make(map[isa.Reg]int)
	var buf [4]isa.Reg
	for i := range b.insts {
		in := &b.insts[i]
		for _, r := range in.Sources(buf[:0]) {
			if isVirtual(r) {
				uses[r] += 2 // sources cost a load and count double
			}
		}
		for _, r := range in.Dests(buf[:0]) {
			if isVirtual(r) {
				uses[r]++
			}
		}
	}

	a := &allocation{
		phys: make(map[isa.Reg]isa.Reg),
		slot: make(map[isa.Reg]int32),
	}
	nextSlot := int32(0)

	plan := func(file string, nVars, avail, nScratch int, pool []isa.Reg) error {
		isFile := func(v isa.Reg) bool {
			if file == "int" {
				return isVirtual(v) && !isVirtualFP(v)
			}
			return isVirtualFP(v)
		}
		if nVars <= avail {
			// Everything fits; no scratch registers needed. Assign in
			// creation order so codegen is deterministic.
			idx := 0
			for v := virtIntBase; v < 256; v++ {
				r := isa.Reg(v)
				if !isFile(r) {
					continue
				}
				if _, used := uses[r]; !used {
					continue
				}
				if idx >= len(pool) {
					return fmt.Errorf("prog %q: %s pool exhausted", b.name, file)
				}
				a.phys[r] = pool[idx]
				idx++
			}
			return nil
		}
		resident := avail - nScratch
		if resident < 1 {
			return fmt.Errorf("prog %q: register budget too small for %s file (avail %d, scratch %d)",
				b.name, file, avail, nScratch)
		}
		// Rank virtual registers of this file by use count.
		var vs []isa.Reg
		for v, n := range uses {
			if n == 0 {
				continue
			}
			if isFile(v) {
				vs = append(vs, v)
			}
		}
		sort.Slice(vs, func(i, j int) bool {
			if uses[vs[i]] != uses[vs[j]] {
				return uses[vs[i]] > uses[vs[j]]
			}
			return vs[i] < vs[j]
		})
		scratch := pool[:nScratch]
		res := pool[nScratch : nScratch+resident]
		for i, v := range vs {
			if i < len(res) {
				a.phys[v] = res[i]
			} else {
				a.slot[v] = spillBaseOff + nextSlot*8
				nextSlot++
			}
		}
		if file == "int" {
			a.intSc = scratch
		} else {
			a.fpSc = scratch
		}
		return nil
	}

	availInt := budget.Int - structuralInt
	if availInt > len(intPool) {
		availInt = len(intPool)
	}
	scInt := 0
	if b.nIntVars > availInt {
		scInt = spillScratchInt
	}
	if err := plan("int", b.nIntVars, availInt, scInt, intPool); err != nil {
		return nil, err
	}

	fpPool := make([]isa.Reg, 0, isa.NumFPRegs)
	for i := 0; i < isa.NumFPRegs; i++ {
		fpPool = append(fpPool, isa.F(i))
	}
	availFP := budget.FP
	if availFP > len(fpPool) {
		availFP = len(fpPool)
	}
	scFP := 0
	if b.nFPVars > availFP {
		scFP = spillScratchFP
	}
	if err := plan("fp", b.nFPVars, availFP, scFP, fpPool); err != nil {
		return nil, err
	}

	if nextSlot*8+spillBaseOff > 0x7000 {
		return nil, fmt.Errorf("prog %q: too many spill slots (%d)", b.name, nextSlot)
	}
	return a, nil
}

// rewrite lowers the abstract instruction stream: virtual registers
// become physical registers, with spill loads/stores inserted around
// instructions that touch stack-resident virtuals. It returns the new
// stream, its branch-label annotations, and the old->new index map used
// to resolve labels.
func (b *Builder) rewrite(a *allocation) (insts []isa.Inst, branch []string, idxMap []int) {
	insts = make([]isa.Inst, 0, len(b.insts)+len(a.slot)*2)
	branch = make([]string, 0, cap(insts))
	idxMap = make([]int, len(b.insts)+1)

	var srcBuf, dstBuf [4]isa.Reg
	for i := range b.insts {
		idxMap[i] = len(insts)
		in := b.insts[i] // copy
		lbl := b.branch[i]

		srcs := in.Sources(srcBuf[:0])
		dsts := in.Dests(dstBuf[:0])
		anyVirtual := false
		for _, r := range srcs {
			if isVirtual(r) {
				anyVirtual = true
			}
		}
		for _, r := range dsts {
			if isVirtual(r) {
				anyVirtual = true
			}
		}
		if !anyVirtual {
			insts = append(insts, in)
			branch = append(branch, lbl)
			continue
		}

		assign := make(map[isa.Reg]isa.Reg, 4)
		scI, scF := 0, 0
		takeScratch := func(fp bool) isa.Reg {
			if fp {
				r := a.fpSc[scF%len(a.fpSc)]
				scF++
				return r
			}
			r := a.intSc[scI%len(a.intSc)]
			scI++
			return r
		}

		// Reload spilled sources.
		for _, v := range srcs {
			if !isVirtual(v) {
				continue
			}
			if _, done := assign[v]; done {
				continue
			}
			if p, ok := a.phys[v]; ok {
				assign[v] = p
				continue
			}
			off := a.slot[v]
			sc := takeScratch(isVirtualFP(v))
			assign[v] = sc
			if isVirtualFP(v) {
				insts = append(insts, isa.Inst{Op: isa.LdF, Rd: sc, Rs: isa.SP, Imm: off})
			} else {
				insts = append(insts, isa.Inst{Op: isa.Ld, Rd: sc, Rs: isa.SP, Imm: off})
			}
			branch = append(branch, "")
		}

		// Map destinations; spilled ones get a scratch to compute into.
		type dstStore struct {
			sc  isa.Reg
			off int32
			fp  bool
		}
		var stores []dstStore
		for _, v := range dsts {
			if !isVirtual(v) {
				continue
			}
			if p, ok := a.phys[v]; ok {
				assign[v] = p
				continue
			}
			off := a.slot[v]
			sc, done := assign[v]
			if !done {
				sc = takeScratch(isVirtualFP(v))
				assign[v] = sc
			}
			stores = append(stores, dstStore{sc: sc, off: off, fp: isVirtualFP(v)})
		}

		remap := func(r isa.Reg) isa.Reg {
			if p, ok := assign[r]; ok {
				return p
			}
			return r
		}
		in.Rd = remap(in.Rd)
		in.Rs = remap(in.Rs)
		in.Rt = remap(in.Rt)
		insts = append(insts, in)
		branch = append(branch, lbl)

		for _, st := range stores {
			if st.fp {
				insts = append(insts, isa.Inst{Op: isa.StF, Rd: st.sc, Rs: isa.SP, Imm: st.off})
			} else {
				insts = append(insts, isa.Inst{Op: isa.Sd, Rd: st.sc, Rs: isa.SP, Imm: st.off})
			}
			branch = append(branch, "")
		}
	}
	idxMap[len(b.insts)] = len(insts)
	return insts, branch, idxMap
}

// Finalize allocates registers under the given budget, resolves labels
// and jump tables, and produces a runnable Program.
func (b *Builder) Finalize(budget RegBudget) (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.insts) == 0 {
		return nil, fmt.Errorf("prog %q: empty program", b.name)
	}
	alloc, err := b.planAlloc(budget)
	if err != nil {
		return nil, err
	}
	insts, branch, idxMap := b.rewrite(alloc)

	labelAddr := func(name string) (uint64, error) {
		pos, ok := b.labels[name]
		if !ok {
			return 0, fmt.Errorf("prog %q: undefined label %q", b.name, name)
		}
		return CodeBase + uint64(idxMap[pos])*isa.InstBytes, nil
	}

	for i := range insts {
		if branch[i] == "" {
			continue
		}
		addr, err := labelAddr(branch[i])
		if err != nil {
			return nil, err
		}
		insts[i].Target = addr
	}

	data := make([]DataSeg, len(b.data))
	copy(data, b.data)
	for _, jt := range b.jumpTables {
		buf := make([]byte, 8*len(jt.labels))
		for i, lbl := range jt.labels {
			addr, err := labelAddr(lbl)
			if err != nil {
				return nil, err
			}
			binary.LittleEndian.PutUint64(buf[i*8:], addr)
		}
		data = append(data, DataSeg{Addr: jt.addr, Bytes: buf})
	}

	dataSize := b.dataNext - DataBase
	if dataSize < 4096 {
		dataSize = 4096
	}
	p := &Program{
		Name:    b.name,
		Code:    insts,
		Decoded: isa.DecodeAll(insts),
		Entry:   CodeBase,
		Regions: []vm.Region{
			{Name: "text", Base: CodeBase, Size: uint64(len(insts))*isa.InstBytes + 4096, Perm: vm.PermRead | vm.PermExec},
			{Name: "data", Base: DataBase, Size: dataSize + 65536, Perm: vm.PermRW},
			{Name: "stack", Base: StackTop - StackSize, Size: StackSize, Perm: vm.PermRW},
		},
		Data: data,
		InitRegs: map[isa.Reg]uint64{
			isa.SP: StackTop - 0x10000,
			isa.GP: DataBase,
		},
		Budget:     budget,
		SpillSlots: len(alloc.slot),
	}
	return p, nil
}
