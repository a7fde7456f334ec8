// Command floors runs the repository's benchmark three times and
// asserts its machine-independent floors: each is a ratio or an exact
// count taken inside one run, so it holds on any host. A broken floor
// exits 1 naming it.
//
// Usage, from the module root (~70 s):
//
//	go run ./scripts/floors
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Each floor, and what it reads on the 2-core reference host.
const (
	sblockOverInterp = 1.5   // ~2.2x
	ffwdOverCold     = 8.0   // ~24x
	coreOverInterp   = 0.068 // 0.8 x the 0.085 three traced runs read (0.084 0.075 0.098)
	runAllocs        = 60    // 44-45: memory frames and the page table's growth
)

// bench runs one workload, checks that its outputs were correct and no
// operation failed, and returns its metrics by name.
func bench(workload string, trace int) map[string]float64 {
	cmd := exec.Command("go", "run", "./bench", "--workload", workload,
		"--seed", "1", "--seconds", "10", "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var run struct {
		Correct           bool
		Failed, Attempted int
		Metrics           map[string]struct{ Value float64 }
	}
	if err == nil {
		err = json.Unmarshal([]byte(lines[len(lines)-1]), &run)
	}
	switch {
	case err != nil:
		fail("%s: %v", workload, err)
	case !run.Correct:
		fail("%s: outputs failed their check", workload)
	case run.Failed != 0:
		fail("%s: %d of %d operations failed", workload, run.Failed, run.Attempted)
	}
	m := make(map[string]float64, len(run.Metrics))
	for name, v := range run.Metrics {
		m[name] = v.Value
	}
	return m
}

func main() {
	// One traced ffwd-99 run: the superblock engine must out-run the
	// interpreter, and 30 runs must share exactly 10 checkpoint builds.
	layers := bench("ffwd-99", 1)
	raw := layers["sblock.minst_per_s"] / layers["emu.minst_per_s"]
	if raw < sblockOverInterp {
		fail("sblock over interpreter %.2fx is below the %.1fx floor", raw, sblockOverInterp)
	}
	if built, shared := layers["engine.ckpt_misses"], layers["engine.ckpt_hits"]; built != 10 || shared != 20 {
		fail("checkpoints: %g built, %g shared; want 10 and 20", built, shared)
	}
	// The same run's ladder times the cycle core (ten workloads on T4,
	// one goroutine) and the interpreter within seconds of each other:
	// their ratio takes the host's speed out, so a cycle-core regression
	// of the 8.5 -> 7 Minst/s class fails here on any machine.
	var sum float64
	n := 0
	for name, v := range layers {
		if strings.HasPrefix(name, "cpu.minst_per_s.") {
			sum, n = sum+v, n+1
		}
	}
	if n != 10 {
		fail("the ladder timed %d cycle-core workloads, want 10", n)
	}
	core := sum / 10 / layers["emu.minst_per_s"]
	if core < coreOverInterp {
		fail("cycle core over interpreter %.4f is below the %g floor", core, coreOverInterp)
	}
	// The ladder's count of mallocs inside one from-reset Run
	// (test-scale compress on T4): the run's memory frames and page
	// table, and nothing per run beside them. The margin covers the map
	// growth Go's per-map hash seeds make vary; copying the end-of-run
	// aggregates into a registry again (125 before it stopped) fails.
	if n, ok := layers["cpu.run_allocs"]; !ok || n > runAllocs {
		fail("one Run makes %g allocations (reported: %v), over the %d floor", n, ok, runAllocs)
	}
	// Two untraced runs: the two-phase methodology must pay for itself
	// in simulated instructions per host second.
	ffwd := bench("ffwd-99", 0)["sim_minst_per_s"]
	cold := bench("grid-cold", 0)["sim_minst_per_s"]
	if ffwd/cold < ffwdOverCold {
		fail("ffwd-99 over grid-cold %.1fx is below the %.1fx floor", ffwd/cold, ffwdOverCold)
	}
	fmt.Printf("floors ok: sblock %.2fx over the interpreter, 10 checkpoints built / 20 shared, "+
		"cycle core %.4f of the interpreter, %g allocations in one Run, ffwd-99 %.1fx over grid-cold\n",
		raw, core, layers["cpu.run_allocs"], ffwd/cold)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "floors: "+format+"\n", args...)
	os.Exit(1)
}
