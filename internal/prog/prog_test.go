package prog

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"hbat/internal/isa"
	"hbat/internal/mem"
	"hbat/internal/vm"
)

func TestLabelsResolve(t *testing.T) {
	b := NewBuilder("labels")
	v := b.IVar("v")
	b.Li(v, 3)
	b.Label("loop")
	b.Addi(v, v, -1)
	b.Bgtz(v, "loop")
	b.Halt()
	p, err := b.Finalize(Budget32)
	if err != nil {
		t.Fatal(err)
	}
	var br *isa.Inst
	var brPC uint64
	for i := range p.Code {
		if p.Code[i].Op == isa.Bgtz {
			br = &p.Code[i]
			brPC = CodeBase + uint64(i)*isa.InstBytes
		}
	}
	if br == nil {
		t.Fatal("no branch emitted")
	}
	if br.Target != brPC-isa.InstBytes {
		t.Fatalf("branch target 0x%x, want 0x%x (the addi)", br.Target, brPC-isa.InstBytes)
	}
}

func TestUndefinedLabelFails(t *testing.T) {
	b := NewBuilder("bad")
	b.J("nowhere")
	b.Halt()
	if _, err := b.Finalize(Budget32); err == nil {
		t.Fatal("undefined label accepted")
	}
}

func TestDuplicateLabelFails(t *testing.T) {
	b := NewBuilder("bad")
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Finalize(Budget32); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

func TestAllocAlignmentAndSymbols(t *testing.T) {
	b := NewBuilder("alloc")
	a1 := b.Alloc("a", 10, 8)
	a2 := b.Alloc("b", 100, 64)
	if a1%8 != 0 || a2%64 != 0 {
		t.Fatalf("misaligned: %#x %#x", a1, a2)
	}
	if a2 < a1+10 {
		t.Fatal("allocations overlap")
	}
	if b.Addr("a") != a1 || b.Addr("b") != a2 {
		t.Fatal("symbol table wrong")
	}
}

func TestLiRanges(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 32767, -32768, 32768, 0x12345678, 0xFFFFFFFF} {
		b := NewBuilder("li")
		r := b.IVar("r")
		b.Li(r, v)
		b.Halt()
		p, err := b.Finalize(Budget32)
		if err != nil {
			t.Fatalf("Li(%d): %v", v, err)
		}
		// Execute by hand through ALUEval.
		var regs [isa.NumRegs]uint64
		for i := range p.Code {
			in := &p.Code[i]
			if in.Op == isa.Halt {
				break
			}
			regs[in.Rd] = isa.ALUEval(in, regs[in.Rs], regs[in.Rt], 0)
		}
		want := uint64(v)
		if v < 0 {
			want = uint64(v) // sign-extended
		}
		// Find which physical register got the value: first inst dest.
		got := regs[p.Code[0].Rd]
		if got != want {
			t.Errorf("Li(%d) produced %#x, want %#x", v, got, want)
		}
	}
	b := NewBuilder("li-bad")
	b.Li(b.IVar("r"), 1<<33)
	b.Halt()
	if _, err := b.Finalize(Budget32); err == nil {
		t.Fatal("out-of-range Li accepted")
	}
}

func TestJumpTableResolved(t *testing.T) {
	b := NewBuilder("jt")
	b.JumpTable("tab", "h0", "h1")
	b.Nop()
	b.Label("h0")
	b.Nop()
	b.Label("h1")
	b.Halt()
	p, err := b.Finalize(Budget32)
	if err != nil {
		t.Fatal(err)
	}
	tab := p.Image.Frame(DataBase)
	if tab == nil || len(p.Data) != 1 || p.Data[0] != (DataSeg{Addr: DataBase, Size: 16}) {
		t.Fatalf("jump table data missing: segments %v", p.Data)
	}
	h0 := binary.LittleEndian.Uint64(tab[:])
	h1 := binary.LittleEndian.Uint64(tab[8:])
	if h0 != CodeBase+1*isa.InstBytes || h1 != CodeBase+2*isa.InstBytes {
		t.Fatalf("table = %#x %#x", h0, h1)
	}
}

func TestBudget32NoSpills(t *testing.T) {
	b := NewBuilder("nospill")
	for i := 0; i < 20; i++ {
		v := b.IVar(string(rune('a' + i)))
		b.Li(v, int64(i))
	}
	b.Halt()
	p, err := b.Finalize(Budget32)
	if err != nil {
		t.Fatal(err)
	}
	if p.SpillSlots != 0 {
		t.Fatalf("spill slots = %d with 20 vars under Budget32", p.SpillSlots)
	}
}

func TestBudget8SpillsAndStaysArchitectural(t *testing.T) {
	b := NewBuilder("spill")
	vars := make([]isa.Reg, 12)
	for i := range vars {
		vars[i] = b.IVar(string(rune('a' + i)))
		b.Li(vars[i], int64(i*10))
	}
	sum := b.IVar("sum")
	b.Li(sum, 0)
	for _, v := range vars {
		b.Add(sum, sum, v)
	}
	b.Halt()
	p, err := b.Finalize(Budget8)
	if err != nil {
		t.Fatal(err)
	}
	if p.SpillSlots == 0 {
		t.Fatal("no spills with 13 live vars under Budget8")
	}
	// Every register named in the final code must be architectural.
	seen := map[isa.Reg]bool{}
	var buf [4]isa.Reg
	for i := range p.Code {
		in := &p.Code[i]
		for _, r := range in.Sources(buf[:0]) {
			seen[r] = true
		}
		for _, r := range in.Dests(buf[:0]) {
			seen[r] = true
		}
	}
	distinct := 0
	for r := range seen {
		if r >= 64 {
			t.Fatalf("virtual register %d leaked into final code", r)
		}
		if !r.IsFP() && r != isa.Zero && r != isa.SP && r != isa.GP && r != isa.RA {
			distinct++
		}
	}
	if distinct > Budget8.Int-structuralInt {
		t.Fatalf("code uses %d data registers, budget allows %d", distinct, Budget8.Int-structuralInt)
	}
}

func TestInstAt(t *testing.T) {
	b := NewBuilder("instat")
	b.Nop()
	b.Halt()
	p, _ := b.Finalize(Budget32)
	if p.InstAt(CodeBase) == nil || p.InstAt(CodeBase+4) == nil {
		t.Fatal("InstAt missed valid PCs")
	}
	if p.InstAt(CodeBase+8) != nil || p.InstAt(0) != nil || p.InstAt(CodeBase-4) != nil {
		t.Fatal("InstAt returned instructions outside text")
	}
	if p.CodeEnd() != CodeBase+8 {
		t.Fatalf("CodeEnd = %#x", p.CodeEnd())
	}
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder("dis")
	v := b.IVar("v")
	b.Li(v, 3)
	b.Label("loop")
	b.Addi(v, v, -1)
	b.Bgtz(v, "loop")
	b.Halt()
	p, err := b.Finalize(Budget32)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	p.Disassemble(&sb)
	out := sb.String()
	for _, want := range []string{"program dis", "L0:", "bgtz", "# -> L0", "halt", "regions:"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

// loaded loads p at pageSize and returns n bytes read back at vaddr
// through the page table.
func loaded(t *testing.T, p *Program, pageSize, vaddr uint64, n int) []byte {
	t.Helper()
	as, m := vm.NewAddressSpace(pageSize), mem.New()
	for _, r := range p.Regions {
		as.AddRegion(r)
	}
	if err := p.Load(as, m); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	for i := range out {
		pa, err := as.Translate(vaddr+uint64(i), vm.PermRead)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m.ByteAt(pa)
	}
	return out
}

// TestOverlappingSegmentsLastWins: where two segments overlap, the
// bytes written last are the ones a machine loads; declaring a segment
// writes none of its bytes.
func TestOverlappingSegmentsLastWins(t *testing.T) {
	b := NewBuilder("overlap")
	a := b.Alloc("a", 32, 8)
	b.SetData(a, bytes.Repeat([]byte{1}, 32))
	b.SetWords(a+8, []uint64{0x0202020202020202})
	s := b.Segment(a+12, 8)
	s.SetByte(7, 3)
	b.Halt()
	p, err := b.Finalize(Budget32)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{1}, 32)
	copy(want[8:16], bytes.Repeat([]byte{2}, 8))
	want[19] = 3 // the rest of the last segment was never set
	got := make([]byte, 32)
	p.Image.Read(a, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("image % x, want % x", got, want)
	}
	if len(p.Data) != 3 {
		t.Fatalf("%d segments, want the 3 declared", len(p.Data))
	}
	for _, ps := range []uint64{1024, 4096, 8192} {
		if got := loaded(t, p, ps, a, 32); !bytes.Equal(got, want) {
			t.Errorf("%d B pages: loaded % x, want % x", ps, got, want)
		}
	}
}

// TestSegmentStraddlingPages: a segment that runs across page and
// frame boundaries loads whole, whatever the page size.
func TestSegmentStraddlingPages(t *testing.T) {
	b := NewBuilder("straddle")
	b.Alloc("pad", 4096-12, 8)
	a := b.Alloc("a", 9000, 4)
	data := make([]byte, 9000)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	b.SetData(a, data)
	b.Halt()
	p, err := b.Finalize(Budget32)
	if err != nil {
		t.Fatal(err)
	}
	if a%1024 == 0 || a/4096 == (a+9000)/4096 {
		t.Fatalf("segment at 0x%x does not straddle", a)
	}
	for _, ps := range []uint64{1024, 2048, 4096, 8192} {
		if got := loaded(t, p, ps, a, len(data)); !bytes.Equal(got, data) {
			t.Errorf("%d B pages: the loaded segment differs", ps)
		}
	}
}

// TestJumpTablesWrittenAtFinalize: a jump table's entries are code
// addresses known only once registers are allocated, so Finalize
// writes them last: over any data written to the table's bytes, and
// into the image the program keeps. A builder yields one program.
func TestJumpTablesWrittenAtFinalize(t *testing.T) {
	b := NewBuilder("jt-late")
	tab := b.JumpTable("tab", "h1")
	b.SetWords(tab, []uint64{0xdead})
	b.Nop()
	b.Label("h1")
	b.Halt()
	p, err := b.Finalize(Budget32)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(CodeBase + isa.InstBytes)
	if got := binary.LittleEndian.Uint64(loaded(t, p, 4096, tab, 8)); got != want {
		t.Fatalf("loaded table entry %#x, want %#x", got, want)
	}
	if last := p.Data[len(p.Data)-1]; last != (DataSeg{Addr: tab, Size: 8}) {
		t.Fatalf("last segment %+v, want the jump table's", last)
	}
	if _, err := b.Finalize(Budget8); err == nil {
		t.Fatal("a second Finalize rewrote the first program's image")
	}
}

// TestSegmentOutsideDataFails: initial data can only lie in the data
// segment, and a misplaced segment fails the build without panicking.
func TestSegmentOutsideDataFails(t *testing.T) {
	b := NewBuilder("outside")
	b.SetWords(StackTop-64, []uint64{1, 2})
	b.Halt()
	if _, err := b.Finalize(Budget32); err == nil {
		t.Fatal("initial data on the stack accepted")
	}
}
