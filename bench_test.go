package hbat

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benchmarks for the design choices
// called out in DESIGN.md. Each figure benchmark runs the full
// design × workload grid at test scale and reports the run-time
// weighted normalized IPC of key designs as custom metrics, so
// `go test -bench` regenerates the paper's headline numbers:
//
//	go test -bench 'Figure5' -benchtime 1x
//
// EXPERIMENTS.md records the full-scale results produced by
// cmd/hbat-experiments against the paper's reported values.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"hbat/internal/cpu"
	"hbat/internal/emu"
	"hbat/internal/engine"
	"hbat/internal/harness"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/tlb"
	"hbat/internal/vm"
	"hbat/internal/workload"
)

func benchOpts() harness.Options {
	return harness.Options{Scale: workload.ScaleTest, Seed: 1}
}

// reportFigure publishes each design's normalized average as a metric.
func reportFigure(b *testing.B, f *harness.FigureResult) {
	b.Helper()
	for _, d := range f.Designs {
		b.ReportMetric(f.NormalizedAvg(d), "norm:"+d)
	}
}

// BenchmarkTable3 regenerates the baseline program characterization.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table3(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var ipc, n float64
			for _, r := range rows {
				ipc += r.CommitIPC
				n++
			}
			b.ReportMetric(ipc/n, "meanIPC")
		}
	}
}

// BenchmarkFigure5 regenerates the baseline design comparison.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure5(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkFigure6 regenerates the TLB miss-rate study.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure6(context.Background(), benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, size := range f.Sizes {
				b.ReportMetric(100*f.RTWAvg(size), fmt.Sprintf("missPct@%d", size))
			}
		}
	}
}

// BenchmarkFigure7 regenerates the in-order issue comparison.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure7(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkFigure8 regenerates the 8 KB page comparison.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure8(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkFigure9 regenerates the reduced-register comparison.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure9(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f)
		}
	}
}

// BenchmarkTable2 renders the design inventory (trivially cheap; it
// exists so every numbered artifact has a bench target).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RenderTable2(io.Discard)
	}
}

// --- ablation benchmarks (design choices beyond the paper's grid) ---

// refStream replays one workload's data-reference VPN stream into a
// functional TLB model and returns its miss rate.
func missRateWith(b *testing.B, wl string, entries int, repl tlb.Replacement) float64 {
	b.Helper()
	w, err := workload.ByName(wl)
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	m, err := emu.New(p, 4096)
	if err != nil {
		b.Fatal(err)
	}
	sim := tlb.NewMissRateSim(entries, repl, 1)
	bits := m.AS.PageBits()
	m.OnMemRef = func(vaddr uint64, _ bool) { sim.Ref(vaddr >> bits) }
	if err := m.Run(0); err != nil {
		b.Fatal(err)
	}
	return sim.MissRate()
}

// BenchmarkAblationL1Replacement compares LRU vs FIFO vs random for the
// small upper-level TLB (the paper asserts LRU is what makes a tiny L1
// viable; Section 3.3).
func BenchmarkAblationL1Replacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, repl := range []tlb.Replacement{tlb.LRU, tlb.FIFO, tlb.Random} {
			var sum float64
			for _, wl := range []string{"compress", "gcc", "tomcatv"} {
				sum += missRateWith(b, wl, 8, repl)
			}
			if i == 0 {
				b.ReportMetric(100*sum/3, "missPct:"+repl.String())
			}
		}
	}
}

// BenchmarkAblationBankSelect compares bit selection against
// XOR-folding for the interleaved design's bank distribution
// (Section 3.2 / configuration X4).
func BenchmarkAblationBankSelect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range []struct {
			name string
			sel  tlb.Select
		}{{"bit", tlb.BitSelect}, {"xor", tlb.XORSelect}} {
			d := tlb.NewBanked("I4", vm.NewAddressSpace(4096), 128, 4, 1, 0, cfg.sel, tlb.Random, 1)
			conflicts := 0
			total := 0
			// Simultaneous request pairs drawn from a strided stream:
			// the pathological case for bit selection.
			for vpn := uint64(0); vpn < 4096; vpn++ {
				a, c := d.SelectBank(vpn), d.SelectBank(vpn+4) // stride-4 pages collide under bit select
				total++
				if a == c {
					conflicts++
				}
			}
			if i == 0 {
				b.ReportMetric(100*float64(conflicts)/float64(total), "conflictPct:"+cfg.name)
			}
		}
	}
}

// BenchmarkAblationL1TLBPorts varies the L1 TLB port count of the M8
// design (the paper fixes it at 4 — enough for every requester; fewer
// ports would stall the shielding structure itself).
func BenchmarkAblationL1TLBPorts(b *testing.B) {
	w, err := workload.ByName("espresso")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, ports := range []int{1, 2, 4} {
			m, err := cpu.New(p, cpu.DefaultConfig(), func(as *vm.AddressSpace) tlb.Device {
				return tlb.NewMultilevel("M8", as, 8, ports, 128, 1)
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(m.Stats().IPC(), fmt.Sprintf("IPC:%dport", ports))
			}
		}
	}
}

// BenchmarkAblationPretransCacheSize varies the pretranslation cache
// size around the paper's 8 entries.
func BenchmarkAblationPretransCacheSize(b *testing.B) {
	w, err := workload.ByName("tomcatv")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, size := range []int{4, 8, 16} {
			m, err := cpu.New(p, cpu.DefaultConfig(), func(as *vm.AddressSpace) tlb.Device {
				return tlb.NewPretranslation("P", as, size, 4, 128, 1)
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(m.Stats().IPC(), fmt.Sprintf("IPC:%dentries", size))
			}
		}
	}
}

// BenchmarkExtensionVirtualCache compares a single-ported TLB behind a
// physically-indexed cache against the same TLB behind a virtually-
// indexed cache (the organization the paper's Section 3 sets aside):
// translation bandwidth stops mattering when only misses translate.
func BenchmarkExtensionVirtualCache(b *testing.B) {
	w, err := workload.ByName("espresso")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, vc := range []bool{false, true} {
			cfg := cpu.DefaultConfig()
			cfg.VirtualCache = vc
			m, err := cpu.NewWithDesign(p, cfg, "T1")
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				name := "IPC:phys"
				if vc {
					name = "IPC:virt"
				}
				b.ReportMetric(m.Stats().IPC(), name)
			}
		}
	}
}

// BenchmarkExtensionContextSwitch sweeps the context-switch interval
// (full TLB flush every N instructions), the multiprogramming pressure
// the paper's introduction motivates the designs with.
func BenchmarkExtensionContextSwitch(b *testing.B) {
	w, err := workload.ByName("xlisp")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, every := range []uint64{0, 20000, 5000} {
			cfg := cpu.DefaultConfig()
			cfg.FlushTLBEvery = every
			m, err := cpu.NewWithDesign(p, cfg, "M8")
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(m.Stats().IPC(), fmt.Sprintf("IPC:cs%d", every))
			}
		}
	}
}

// ffwd99Specs is BenchmarkFFwd99's plan, built once per process: the
// testing package calls a benchmark function more than once, and
// counting ~30 M instructions on the emulator each time would dilute
// the profile the benchmark exists for.
var ffwd99Specs []engine.RunSpec

// BenchmarkFFwd99 is the fast-forwarded quick look `go run ./bench
// --workload ffwd-99` times, as a profiling target (make profile-ffwd):
// ten workloads × {T4, M8, PB2} at full scale, each fast-forwarding
// 99 % of its functional count, on a fresh engine per iteration — ten
// checkpoint builds serving thirty restores and 1 % windows.
func BenchmarkFFwd99(b *testing.B) {
	if ffwd99Specs == nil {
		for _, w := range progen.Workloads() {
			p, err := w.Build(prog.Budget32, workload.ScaleFull)
			if err != nil {
				b.Fatal(err)
			}
			m, err := emu.New(p, 4096)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(0); err != nil {
				b.Fatal(err)
			}
			for _, d := range []string{"T4", "M8", "PB2"} {
				ffwd99Specs = append(ffwd99Specs, engine.RunSpec{
					Workload: w.Name, Design: d, Budget: prog.Budget32, Scale: workload.ScaleFull,
					PageSize: 4096, Seed: 1, FastForward: m.InstCount * 99 / 100,
				})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.New().RunAll(context.Background(), ffwd99Specs, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkAblationBaseTLBAssociativity compares the paper's fully-
// associative 128-entry base TLB against practical set-associative
// organizations on the workloads' reference streams. The paper keeps
// all Table 2 base TLBs fully associative; this quantifies what 2-, 4-,
// and 8-way organizations would give up.
func BenchmarkAblationBaseTLBAssociativity(b *testing.B) {
	streams := map[string][]uint64{}
	for _, wl := range []string{"compress", "gcc", "xlisp"} {
		w, err := workload.ByName(wl)
		if err != nil {
			b.Fatal(err)
		}
		// Small scale: the test-scale footprints fit any 128-entry
		// organization, hiding the conflict effects being measured.
		p, err := w.Build(prog.Budget32, workload.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		m, err := emu.New(p, 4096)
		if err != nil {
			b.Fatal(err)
		}
		bits := m.AS.PageBits()
		m.OnMemRef = func(vaddr uint64, _ bool) {
			streams[wl] = append(streams[wl], vaddr>>bits)
		}
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ways := range []int{2, 4, 8, 128} {
			var miss, refs uint64
			for _, stream := range streams {
				bank := tlb.NewSetAssocBank(128, ways, tlb.Random, 1)
				now := int64(0)
				for _, vpn := range stream {
					now++
					refs++
					if _, ok := bank.Lookup(vpn, now); !ok {
						miss++
						bank.Insert(vpn, nil, now)
					}
				}
			}
			if i == 0 {
				b.ReportMetric(100*float64(miss)/float64(refs), fmt.Sprintf("missPct:%dway", ways))
			}
		}
	}
}

// BenchmarkExtensionWalkLatency sweeps the page-table walk latency the
// paper fixes at 30 cycles, showing how sensitive each design class is
// to miss cost (shielding designs barely notice; everything rides on
// the workload's Figure 6 miss rate).
func BenchmarkExtensionWalkLatency(b *testing.B) {
	w, err := workload.ByName("compress") // the highest base-miss workload
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Build(prog.Budget32, workload.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, lat := range []int64{10, 30, 100} {
			cfg := cpu.DefaultConfig()
			cfg.TLBMissLatency = lat
			m, err := cpu.NewWithDesign(p, cfg, "M8")
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(m.Stats().IPC(), fmt.Sprintf("IPC:walk%d", lat))
			}
		}
	}
}
