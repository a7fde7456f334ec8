// Package workload provides synthetic versions of the ten benchmarks of
// Austin & Sohi's evaluation (Section 4.2): compress, doduc, espresso,
// gcc, ghostscript, mpeg_play, perl, tfft, tomcatv, and xlisp. The
// original binaries (SPEC '92 plus five others, compiled with GCC 2.6.2
// for the paper's extended MIPS architecture) are not obtainable, so
// each generator reproduces its model program's memory-reference
// character — data-set size, reference locality (Figure 6's miss-rate
// spread), instruction mix, branch behaviour, and register-pointer
// reuse — on the same virtual ISA. See DESIGN.md for the substitution
// argument.
package workload

import (
	"fmt"
	"sort"

	"hbat/internal/prog"
)

// Scale selects how much work a build does. Reference quantities are
// scaled so the full experiment grid runs in minutes; all reported
// statistics are rates, which stabilize quickly.
type Scale int

const (
	// ScaleTest is for unit tests: ~10-40k committed instructions.
	ScaleTest Scale = iota
	// ScaleSmall is for quick experiments: ~100-300k instructions.
	ScaleSmall
	// ScaleFull is for the headline experiments: ~0.5-1.5M instructions.
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleSmall:
		return "small"
	case ScaleFull:
		return "full"
	}
	return "scale(?)"
}

// pick returns the value for the current scale.
func (s Scale) pick(test, small, full int) int {
	switch s {
	case ScaleTest:
		return test
	case ScaleSmall:
		return small
	default:
		return full
	}
}

// Workload is one synthetic benchmark.
type Workload struct {
	// Name is the benchmark's name (lower case, as in Table 3).
	Name string
	// Model names the original program being modeled and its traits.
	Model string
	// Build generates the program for a register budget and scale.
	Build func(budget prog.RegBudget, scale Scale) (*prog.Program, error)
}

// registry of all workloads, populated by init functions in each
// workload's file.
var registry = map[string]*Workload{}

func register(w *Workload) {
	if _, dup := registry[w.Name]; dup {
		panic("workload: duplicate " + w.Name)
	}
	registry[w.Name] = w
}

// table3Order lists the paper's benchmarks in Table 3 order.
var table3Order = []string{
	"compress", "doduc", "espresso", "gcc", "ghostscript",
	"mpeg_play", "perl", "tfft", "tomcatv", "xlisp",
}

// Names returns the workload names in Table 3 order; workloads
// registered beyond the paper's ten (none today) follow alphabetically.
func Names() []string {
	order := append([]string(nil), table3Order...)
	known := make(map[string]bool, len(order))
	for _, n := range order {
		known[n] = true
	}
	var extra []string
	for name := range registry {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(order, extra...)
}

// ByName returns the named workload.
func ByName(name string) (*Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown %q (known: %v)", name, Names())
	}
	return w, nil
}

// rng is a deterministic xorshift64* generator used to synthesize
// input data (compressed streams, FFT samples, hash keys, ...).
type rng uint64

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	r := rng(seed)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// intn returns a pseudo-random value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a pseudo-random float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }
