package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// suite is the all-workloads result file: what `go run ./bench -o F`
// writes, what bench/baseline/ holds, and what compare reads.
type suite struct {
	Schema    string          `json:"schema"`
	Machine   machine         `json:"machine"`
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Runs      int             `json:"runs"`
	Workloads []suiteWorkload `json:"workloads"`
}

const suiteSchema = "hbat-bench/1"

type machine struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
	OS    string `json:"os"`
}

// suiteWorkload is one workload's untraced runs and its traced run.
type suiteWorkload struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// SimDigest and Exact are the first run's; a run that disagrees
	// with the first is a problem.
	SimDigest string                 `json:"sim_digest"`
	Exact     map[string]uint64      `json:"exact"`
	EndToEnd  map[string]series      `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Problems  []string               `json:"problems,omitempty"`
}

// series is one end-to-end metric over a workload's untraced runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the distance between the first and third quartile as a
	// share of the median (0 with fewer than two runs).
	Spread float64 `json:"spread"`
}

func newSeries(unit string, values []float64) series {
	s := series{Unit: unit, Values: values, Median: median(values)}
	if len(values) >= 2 && s.Median != 0 {
		q1, q3 := quartiles(values)
		s.Spread = (q3 - q1) / s.Median
	}
	return s
}

// runSuite runs every workload — runs untraced invocations and one
// traced — each in a child process, and writes the suite to file.
func runSuite(ctx context.Context, cfg runConfig, runs int, file string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	s := &suite{Schema: suiteSchema, Machine: thisMachine(), Seed: cfg.Seed, Seconds: cfg.Seconds, Runs: runs}
	for _, w := range workloadDefs {
		sw := suiteWorkload{Name: w.Name, Correct: true, EndToEnd: map[string]series{}}
		values := map[string][]float64{}
		for i := 0; i <= runs; i++ {
			c := cfg
			c.Workload, c.Trace = w.Name, i == runs
			rec, err := runChild(ctx, self, c)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			sw.Correct = sw.Correct && rec.Correct
			sw.Attempted += rec.Attempted
			sw.Failed += rec.Failed
			sw.Problems = append(sw.Problems, rec.Problems...)
			if i == 0 {
				sw.SimDigest, sw.Exact = rec.SimDigest, rec.Exact
			} else if rec.SimDigest != sw.SimDigest || !maps.Equal(rec.Exact, sw.Exact) {
				sw.Correct = false
				sw.Problems = append(sw.Problems, fmt.Sprintf("run %d: sim_digest or an exact simulated count differs from run 0", i))
			}
			if c.Trace {
				sw.PerLayer = rec.Metrics
				continue
			}
			for name, m := range rec.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			sw.EndToEnd[d.Name] = newSeries(d.Unit, values[d.Name])
		}
		printSuiteWorkload(&sw)
		s.Workloads = append(s.Workloads, sw)
	}
	if err := writeJSON(file, s); err != nil {
		return err
	}
	fmt.Println("wrote", file)
	for _, sw := range s.Workloads {
		if !sw.Correct {
			return fmt.Errorf("%s: outputs not correct (see problems in %s)", sw.Name, file)
		}
	}
	return nil
}

// runChild runs one invocation in a child process and reads back the
// record it wrote.
func runChild(ctx context.Context, self string, c runConfig) (*record, error) {
	trace := "0"
	if c.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"--workload", c.Workload, "--seed", strconv.FormatUint(c.Seed, 10),
		"--seconds", strconv.FormatFloat(c.Seconds, 'g', -1, 64), "--trace", trace, "--out", c.Out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(c.recordPath())
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", c.recordPath(), err)
	}
	return &rec, nil
}

func printSuiteWorkload(sw *suiteWorkload) {
	fmt.Printf("%s  (%d operations, %d failed)  sim_digest %.16s\n", sw.Name, sw.Attempted, sw.Failed, sw.SimDigest)
	for _, d := range endToEnd {
		s := sw.EndToEnd[d.Name]
		fmt.Printf("  %-18s %12.6g %-8s spread %5.1f%% over %d runs\n", d.Name, s.Median, s.Unit, 100*s.Spread, len(s.Values))
	}
	for _, d := range perLayer {
		if m := sw.PerLayer[d.Name]; m.Value != 0 {
			fmt.Printf("  %-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, p := range sw.Problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return m
}
