// Command promcheck validates Prometheus text exposition (version
// 0.0.4), using the same parser the obs package's golden tests run.
//
// With file arguments (or stdin) it checks existing exposition; CI
// pipes a live /metrics scrape through it:
//
//	curl -s localhost:8090/metrics | go run ./internal/obs/promcheck
//
// With -static it needs no server at all: it executes one test-scale
// simulation on a fresh sweep engine, renders the exposition the obs
// server would serve, and validates it — the `make check` gate that
// keeps the metrics pipeline honest without opening a port.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hbat/internal/engine"
	"hbat/internal/obs"
	"hbat/internal/prog"
	"hbat/internal/runspan"
	"hbat/internal/workload"
)

func main() {
	static := flag.Bool("static", false, "self-test: run one test-scale simulation and validate the resulting exposition in-process (no server)")
	flag.Parse()
	if *static {
		if err := staticCheck(); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() == 0 {
		check("<stdin>", os.Stdin)
		return
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		check(path, f)
		f.Close()
	}
}

func check(name string, f *os.File) {
	n, err := obs.ParseExposition(f)
	if err != nil {
		fail(fmt.Errorf("%s: %w", name, err))
	}
	fmt.Printf("%s: ok (%d samples)\n", name, n)
}

// staticCheck exercises the whole pipeline — engine run, merged
// aggregates, watchdog, exposition rendering, parser — with real data
// from one simulation.
func staticCheck() error {
	wd := obs.NewWatchdog(time.Minute)
	eng := engine.New()
	eng.SetHeartbeat(wd.Touch)
	eng.SetSpans(runspan.New(runspan.Config{}))
	res := eng.Run(context.Background(), engine.RunSpec{
		Workload: "espresso", Design: "T4", Budget: prog.Budget32,
		Scale: workload.ScaleTest, PageSize: 4096, Seed: 1,
	})
	if res.Err != nil {
		return fmt.Errorf("static: probe run: %w", res.Err)
	}
	var buf bytes.Buffer
	if err := obs.WriteSnapshot(&buf, obs.Config{Engine: eng, Watchdog: wd}); err != nil {
		return fmt.Errorf("static: exposition: %w", err)
	}
	n, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("static: exposition does not parse: %w", err)
	}
	// The scrape must carry the engine's sweep state and the probe
	// run's merged metrics, all under the hbat_ prefix.
	for _, want := range []string{
		"hbat_sweep_runs_done 1",
		"hbat_sweep_runs_active 0",
		"hbat_obs_healthy 1",
		"hbat_tlb_lookups",
		"hbat_sweep_run_wall_ms_count",
	} {
		if !strings.Contains(buf.String(), want) {
			return fmt.Errorf("static: exposition missing %q", want)
		}
	}
	fmt.Printf("static: ok (%d samples from a live test-scale run)\n", n)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "promcheck:", err)
	os.Exit(1)
}
