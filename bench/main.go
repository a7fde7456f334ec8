// Command bench is the repository's benchmark: six workloads from the
// paper's figure grid to a job through the fleet coordinator, six
// end-to-end metrics measured with tracing off, and a per-layer ladder
// measured in a separate traced run. BENCHMARK.json at the repository
// root declares the workloads and metrics; README.md in this directory
// defines them.
//
//	go run ./bench --workload serve-hit --seed 1 --seconds 10 --trace 0
//	go run ./bench --workload serve-hit --seed 1 --seconds 10 --trace 1
//	go run ./bench -runs 5 -o A.json    # every workload, untraced ×5 + traced
//	go run ./bench compare A.json B.json
//
// One invocation with --workload measures one workload in this process
// and prints every metric by name with its unit, then, as the last
// line of standard output, one JSON object: correct, attempted, failed,
// metrics. Without --workload the program runs every workload, each
// run in a child process of its own so that peak memory and heap state
// belong to that run alone, and writes one JSON file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		cfg  runConfig
		runs int
		file string
		tr   int
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run (empty: all six, each run in a child process)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed of every generated input: job order, cold-job simulation seeds, grid seed (folded into 1..2^31-1)")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the timed region")
	flag.IntVar(&tr, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.Out, "out", "bench/out", "directory for trace files, run records and scratch files")
	flag.IntVar(&runs, "runs", 1, "all-workloads mode: untraced runs per workload")
	flag.StringVar(&file, "o", "", "all-workloads mode: result file (default <out>/bench.json)")
	flag.Parse()
	if flag.NArg() > 0 || tr < 0 || tr > 1 || cfg.Seconds <= 0 || runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.Trace = tr == 1
	cfg.Seed = foldSeed(cfg.Seed)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if cfg.Workload == "" {
		if file == "" {
			file = cfg.Out + "/bench.json"
		}
		fail(runSuite(ctx, cfg, runs, file))
		return
	}

	rec, err := runOne(ctx, cfg)
	fail(err)
	fail(writeJSON(cfg.recordPath(), rec))
	printRecord(rec)
	line, err := json.Marshal(rec.result)
	fail(err)
	fmt.Println(string(line))
}

// fail exits with status 1, printing no result, when err is set.
func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printRecord prints every metric by name with its unit, the sample
// count beside the timings, and what the checks found.
func printRecord(rec *record) {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	fmt.Printf("  operations: %d attempted, %d failed (failed_frac %.4g)\n",
		rec.Attempted, rec.Failed, float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	fmt.Printf("  sim_digest %s\n", rec.SimDigest)
	for _, p := range rec.Problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
