package tlb_test

import (
	"fmt"
	"testing"

	"hbat/internal/cpu"
	"hbat/internal/prog"
	"hbat/internal/tlb"
	"hbat/internal/vm"
)

// BenchmarkAblationPretransOffsetBits sweeps how many offset bits join
// the pretranslation tag (Section 3.5 suggests "a few bits from the
// offset could be combined with the base register identifier"; the
// paper uses four, zero degenerates to one translation per register).
func BenchmarkAblationPretransOffsetBits(b *testing.B) {
	// A microbenchmark where one base register addresses a structure
	// spanning two pages: field A at offset 0, field B at offset 4 KB.
	// With zero offset-tag bits a register holds one pretranslation, so
	// the alternating accesses thrash it; with one or more bits both
	// pages stay attached.
	pb := prog.NewBuilder("bigstruct")
	pb.Alloc("s", 8192, 8)
	base := pb.IVar("base")
	va := pb.IVar("va")
	vb := pb.IVar("vb")
	n := pb.IVar("n")
	pb.La(base, "s")
	pb.Li(n, 2000)
	pb.Label("loop")
	pb.Ld(va, base, 0)
	pb.Ld(vb, base, 4096)
	pb.Add(va, va, vb)
	pb.Sd(va, base, 8)
	pb.Addi(n, n, -1)
	pb.Bgtz(n, "loop")
	pb.Halt()
	p, err := pb.Finalize(prog.Budget32)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{0, 2, 4} {
			m, err := cpu.New(p, cpu.DefaultConfig(), func(as *vm.AddressSpace) tlb.Device {
				return tlb.NewPretranslation("P8", as, 8, 4, 128, 1).SetOffsetTagBits(bits)
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(m.Stats().IPC(), fmt.Sprintf("IPC:%dbits", bits))
			}
		}
	}
}
