// Command hbat runs one workload on one address-translation design and
// prints the run's statistics.
//
// Usage:
//
//	hbat [-workload compress] [-design T4] [-pagesize 4096] [-inorder]
//	     [-fewregs] [-scale small] [-seed 1] [-maxinsts N] [-lockstep]
//	     [-ffwd N] [-ckpt-dir dir]
//	     [-metrics out.json] [-metrics-csv out.csv]
//	     [-trace out.json] [-trace-format perfetto|konata]
//	     [-trace-start N] [-trace-end N] [-trace-buffer N] [-trace-summary]
//	     [-interval-csv out.csv] [-interval N] [-progress]
//	     [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	     [-obs :8090] [-log-level info] [-log-format text|json]
//	     [-spans] [-spans-out prefix] [-manifest manifest.json]
//	hbat -list
//	hbat -dump-config
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hbat"
	"hbat/internal/obs"
)

// writeMetrics exports a run's metrics snapshot as JSON or CSV ("-"
// means stdout).
func writeMetrics(path string, csv bool, snap hbat.MetricsSnapshot) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if csv {
		return snap.WriteCSV(out)
	}
	return snap.WriteJSON(out)
}

func run(ctx context.Context) error {
	var (
		wl         = flag.String("workload", "compress", "workload name (see -list)")
		design     = flag.String("design", "T4", "translation design mnemonic (see -list)")
		pageSize   = flag.Uint64("pagesize", 4096, "virtual-memory page size in bytes")
		inOrder    = flag.Bool("inorder", false, "use the in-order issue model")
		fewRegs    = flag.Bool("fewregs", false, "compile the workload for 8 int / 8 fp registers")
		scale      = flag.String("scale", "small", "workload scale: test, small, or full")
		seed       = flag.Uint64("seed", 1, "seed for randomized structures")
		maxInsts   = flag.Uint64("maxinsts", 0, "cap on committed instructions (0 = to completion)")
		ffwd       = flag.Uint64("ffwd", 0, "fast-forward: functionally execute the first N instructions and measure only the remainder (0 = run from reset)")
		ckptDir    = flag.String("ckpt-dir", "", "persist fast-forward checkpoints in this directory (reused across invocations)")
		lockstep   = flag.Bool("lockstep", false, "verify every commit against the golden emulator (differential check)")
		metrics    = flag.String("metrics", "", "write the run's metrics (counters and distributions) as JSON to this file (\"-\" = stdout)")
		metricsCSV = flag.String("metrics-csv", "", "write the run's metrics (counters and distributions) as CSV to this file (\"-\" = stdout)")

		traceFile    = flag.String("trace", "", "record pipeline events and write the trace to this file")
		traceFormat  = flag.String("trace-format", "perfetto", "trace export format: perfetto (ui.perfetto.dev JSON) or konata (pipeline-viewer log)")
		traceStart   = flag.Int64("trace-start", 0, "first cycle to record (0 = from the beginning)")
		traceEnd     = flag.Int64("trace-end", 0, "last cycle to record, inclusive (0 = to the end)")
		traceBuffer  = flag.Int("trace-buffer", 0, "trace ring-buffer capacity in events (0 = 65536; oldest overwritten)")
		traceSummary = flag.Bool("trace-summary", false, "print a text report of stall causes and longest-latency instructions (implies recording)")
		intervalCSV  = flag.String("interval-csv", "", "sample interval time-series metrics and write CSV to this file (\"-\" = stdout)")
		interval     = flag.Int64("interval", 10000, "interval sample period in cycles (with -interval-csv)")
		progress     = flag.Bool("progress", false, "print a one-line status heartbeat to stderr during the run")
		cpuProf      = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
		memProf      = flag.String("memprofile", "", "write a pprof heap profile after the simulation to this file")
		list         = flag.Bool("list", false, "list workloads and designs, then exit")
		dumpCfg      = flag.Bool("dump-config", false, "print the Table 1 baseline configuration, then exit")
		analyze      = flag.Bool("analyze", false, "fit the paper's Section 2 performance model (runs the design and a T4 baseline)")
		disasm       = flag.Bool("disasm", false, "print the workload's generated code instead of simulating")
		manifest     = flag.String("manifest", "", "write a run-provenance manifest (runs + artifact SHA-256s) to this file")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	logger, srv, err := obsFlags.Setup(ctx, os.Stderr, hbat.SweepEngine())
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}
	// Export the merged span timeline on every exit path; the success
	// path below calls FinishSpans first (it is one-shot) so it can
	// name the files and stamp them into the manifest.
	defer func() {
		if _, err := obsFlags.FinishSpans(); err != nil {
			fmt.Fprintln(os.Stderr, "hbat: spans:", err)
		}
	}()

	if *dumpCfg {
		fmt.Println(hbat.BaselineConfig())
		return nil
	}
	if *list {
		fmt.Println("workloads:")
		for _, w := range hbat.Workloads() {
			model, _ := hbat.WorkloadDescription(w)
			fmt.Printf("  %-12s %s\n", w, model)
		}
		fmt.Println("designs:")
		for _, d := range hbat.Designs() {
			desc, _ := hbat.DesignDescription(d)
			fmt.Printf("  %-6s %s\n", d, desc)
		}
		return nil
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbat:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hbat:", err)
		}
	}()

	opts := hbat.Options{
		CommonOptions: hbat.CommonOptions{
			Scale:       *scale,
			Seed:        *seed,
			FastForward: *ffwd,
		},
		Workload:     *wl,
		Design:       *design,
		PageSize:     *pageSize,
		InOrder:      *inOrder,
		FewRegisters: *fewRegs,
		MaxInsts:     *maxInsts,
		Lockstep:     *lockstep,
	}
	if err := hbat.SetCheckpointDir(*ckptDir); err != nil {
		return err
	}
	if *traceFile != "" || *traceSummary {
		switch *traceFormat {
		case "perfetto", "konata":
		default:
			return fmt.Errorf("unknown -trace-format %q (perfetto, konata)", *traceFormat)
		}
		opts.Trace = &hbat.TraceOptions{Buffer: *traceBuffer, Start: *traceStart, End: *traceEnd}
	}
	if *intervalCSV != "" {
		opts.IntervalEvery = *interval
	}
	if *progress {
		start := time.Now()
		opts.Progress = func(cycle int64, committed uint64) {
			ipc := 0.0
			if cycle > 0 {
				ipc = float64(committed) / float64(cycle)
			}
			logger.Info("simulation progress", "cycle", cycle, "insts", committed,
				"ipc", ipc, "elapsed_s", time.Since(start).Seconds())
		}
		opts.ProgressEvery = 100000
	}
	if *disasm {
		return hbat.Disassemble(*wl, *scale, *fewRegs, os.Stdout)
	}
	if *analyze {
		rep, err := hbat.Analyze(ctx, opts)
		if err != nil {
			return err
		}
		hbat.RenderAnalysis(os.Stdout, rep)
		return exportMetrics(*metrics, *metricsCSV, rep.Metrics)
	}

	res, err := hbat.Simulate(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Printf("workload       %s\n", res.Workload)
	fmt.Printf("design         %s\n", res.Design)
	if *lockstep {
		fmt.Printf("lockstep       verified %d commits against the emulator\n", res.Instructions)
	}
	if res.FastForwarded > 0 {
		fmt.Printf("fast-forward   %d instructions warmed functionally; stats cover the measurement window\n", res.FastForwarded)
	}
	fmt.Printf("cycles         %d\n", res.Cycles)
	fmt.Printf("instructions   %d (%d loads, %d stores)\n", res.Instructions, res.Loads, res.Stores)
	fmt.Printf("IPC            %.3f committed, %.3f issued\n", res.IPC, res.IssueIPC)
	fmt.Printf("mem refs/cycle %.3f\n", res.MemPerCycle)
	fmt.Printf("branch pred    %.1f%%\n", 100*res.BranchPredRate)
	fmt.Printf("TLB            %d lookups, %d misses (%d walks), %d no-port retries\n",
		res.TLBLookups, res.TLBMisses, res.TLBWalks, res.NoPortRetries)
	fmt.Printf("shielding      %d shield hits, %d piggybacks, %d status write-throughs\n",
		res.ShieldHits, res.Piggybacks, res.StatusWrites)
	fmt.Printf("stalls         fetch %d, dispatch: tlb-miss %d, rob-full %d, lsq-full %d (cycles)\n",
		res.FetchStallCycles, res.DispatchTLBStalls, res.DispatchROBFull, res.DispatchLSQFull)
	if err := exportMetrics(*metrics, *metricsCSV, res.Metrics); err != nil {
		return err
	}
	if res.Trace != nil {
		if *traceFile != "" {
			if err := exportTrace(*traceFile, *traceFormat, res.Trace); err != nil {
				return err
			}
			fmt.Printf("trace          %s (%s, %d events held, %d dropped)\n",
				*traceFile, *traceFormat, res.Trace.Len(), res.Trace.Dropped())
		}
		if *traceSummary {
			if err := res.Trace.WriteSummary(os.Stdout, 10); err != nil {
				return err
			}
		}
	}
	if res.Intervals != nil && *intervalCSV != "" {
		if err := exportIntervals(*intervalCSV, res.Intervals); err != nil {
			return err
		}
		if *intervalCSV != "-" {
			fmt.Printf("interval-csv   %s\n", *intervalCSV)
		}
	}
	spansPath, err := obsFlags.FinishSpans()
	if err != nil {
		return err
	}
	if spansPath != "" {
		fmt.Printf("spans          %s.jsonl + %s\n", obsFlags.SpansOut, spansPath)
	}
	if *manifest != "" {
		m := hbat.NewManifest("hbat")
		m.RecordRuns(hbat.SweepEngine())
		artifacts := []struct{ name, path string }{
			{"metrics.json", *metrics},
			{"metrics.csv", *metricsCSV},
			{"trace", *traceFile},
			{"intervals.csv", *intervalCSV},
		}
		if spansPath != "" {
			artifacts = append(artifacts,
				struct{ name, path string }{"spans.jsonl", obsFlags.SpansOut + ".jsonl"},
				struct{ name, path string }{"spans.perfetto.json", spansPath},
			)
		}
		for _, a := range artifacts {
			if a.path == "" || a.path == "-" {
				continue
			}
			if err := m.AddArtifactFile(a.name, a.path); err != nil {
				return err
			}
		}
		if err := m.WriteFile(*manifest); err != nil {
			return err
		}
		logger.Info("manifest written", "path", *manifest, "runs", len(m.Runs), "artifacts", len(m.Artifacts))
	}
	return nil
}

// exportTrace writes the captured pipeline trace in the chosen format.
func exportTrace(path, format string, tr *hbat.PipelineTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if format == "konata" {
		return tr.WriteKonata(f)
	}
	return tr.WritePerfetto(f)
}

// exportIntervals writes the sampled time series as CSV ("-" = stdout).
func exportIntervals(path string, s *hbat.IntervalSeries) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return s.WriteCSV(out)
}

// exportMetrics honors the -metrics / -metrics-csv flags.
func exportMetrics(jsonPath, csvPath string, snap hbat.MetricsSnapshot) error {
	if jsonPath != "" {
		if err := writeMetrics(jsonPath, false, snap); err != nil {
			return err
		}
		if jsonPath != "-" {
			fmt.Printf("metrics        %s\n", jsonPath)
		}
	}
	if csvPath != "" {
		if err := writeMetrics(csvPath, true, snap); err != nil {
			return err
		}
		if csvPath != "-" && !strings.EqualFold(jsonPath, csvPath) {
			fmt.Printf("metrics-csv    %s\n", csvPath)
		}
	}
	return nil
}

func main() {
	// Ctrl-C cancels the in-flight simulation at a cycle-granular
	// check; the run exits non-zero (130, the conventional 128+SIGINT).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "hbat:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}
