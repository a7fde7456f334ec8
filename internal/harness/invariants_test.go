package harness

import (
	"testing"

	"hbat/internal/cpu"
	"hbat/internal/prog"
	"hbat/internal/progen"
	"hbat/internal/tlb"
	"hbat/internal/workload"
)

// TestFigure5Orderings asserts, per workload and without a golden file,
// the orderings the paper's design space implies over the Figure 5 grid
// for two seeds: more ports, a larger multi-level L1 and a piggyback
// port never lose IPC.
func TestFigure5Orderings(t *testing.T) {
	pairs := [][2]string{{"T4", "T2"}, {"T2", "T1"}, {"M16", "M8"}, {"M8", "M4"}, {"PB2", "T2"}, {"PB1", "T1"}, {"I4/PB", "I4"}}
	for _, seed := range []uint64{1, 2} {
		f := grid(t, seed)
		for _, w := range f.Workloads {
			for _, p := range pairs {
				if hi, lo := f.IPC[p[0]][w], f.IPC[p[1]][w]; hi < lo {
					t.Errorf("seed %d %s: IPC(%s) %.4f < IPC(%s) %.4f", seed, w, p[0], hi, p[1], lo)
				}
			}
		}
	}
}

// TestMultilevelInclusion: after every M16, M8 and M4 run on all ten
// workloads, each L1 entry is also in the L2.
func TestMultilevelInclusion(t *testing.T) {
	for _, w := range progen.Workloads() {
		p, err := w.Build(prog.Budget32, workload.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{"M16", "M8", "M4"} {
			m, err := cpu.NewWithDesign(p, cpu.DefaultConfig(), d)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatalf("%s/%s: %v", w.Name, d, err)
			}
			if !m.DTLB.(*tlb.Multilevel).CheckInclusion() {
				t.Errorf("%s/%s: an L1 entry is missing from the L2", w.Name, d)
			}
		}
	}
}
