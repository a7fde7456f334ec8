// Command hbat-experiments regenerates the tables and figures of the
// paper's evaluation section (Table 2, Table 3, Figures 5-9) as text,
// and with -html also as one self-contained HTML report (inline SVG
// charts, no external assets) rendered from the runs just simulated.
//
// All artifacts of one invocation share the process-wide sweep engine:
// each workload is built once and each unique simulation runs once,
// however many figures reference it. Ctrl-C (SIGINT) cancels the sweep
// promptly and exits non-zero. Unless -manifest is cleared, the run
// writes a provenance manifest recording the tool build, every
// simulated spec with its seed and wall time, and the SHA-256 of each
// rendered artifact.
//
// Usage:
//
//	hbat-experiments                 # everything, small scale
//	hbat-experiments -only fig6      # one artifact (Figure 6 standalone)
//	hbat-experiments -html r.html    # everything, plus the HTML report
//	hbat-experiments -scale full     # headline scale (minutes)
//	hbat-experiments -obs :8090      # live /metrics, /health, /debug/pprof
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"hbat"
	"hbat/internal/obs"
)

func main() {
	var (
		only     = flag.String("only", "", "run one artifact: table2, table3, fig5, fig6, fig7, fig8, fig9, model")
		scale    = flag.String("scale", "small", "workload scale: test, small, or full")
		par      = flag.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 1, "seed for randomized structures")
		ffwd     = flag.Uint64("ffwd", 0, "fast-forward: functionally execute the first N instructions per run and measure only the remainder (0 = run from reset)")
		ckptDir  = flag.String("ckpt-dir", "", "persist fast-forward checkpoints in this directory (reused across invocations)")
		quiet    = flag.Bool("q", false, "suppress progress output")
		csvDir   = flag.String("csv", "", "also write fig5/7/8/9 results as CSV files into this directory")
		htmlOut  = flag.String("html", "", "also write the whole evaluation as a self-contained HTML report to this file")
		manifest = flag.String("manifest", "manifest.json", "write a run-provenance manifest (runs + artifact SHA-256s) to this file (\"\" = off)")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	logger, srv, err := obsFlags.Setup(ctx, os.Stderr, hbat.SweepEngine())
	if err != nil {
		fail(err)
	}
	if srv != nil {
		defer srv.Close()
	}

	if err := hbat.SetCheckpointDir(*ckptDir); err != nil {
		fail(err)
	}

	csvCapable := make(map[string]bool)
	for _, name := range hbat.CSVExperimentNames() {
		csvCapable[name] = true
	}

	man := hbat.NewManifest("hbat-experiments")

	names := hbat.ExperimentNames
	if *only != "" {
		names = []string{*only}
	}
	base := hbat.ExperimentOptions{
		CommonOptions: hbat.CommonOptions{Scale: *scale, Seed: *seed, FastForward: *ffwd},
		Parallelism:   *par,
	}
	for _, name := range names {
		opts := base
		if !*quiet {
			logger.Info("experiment start", "name", name, "scale", *scale)
			opts.Progress = func(p hbat.RunProgress) {
				if p.Done == p.Total || p.Done%10 == 0 {
					logger.Info("sweep progress", "experiment", name,
						"done", p.Done, "total", p.Total,
						"elapsed_s", p.Elapsed.Seconds(), "eta_s", p.ETA.Seconds())
				}
			}
		}
		// Tee the rendered report through a buffer so its SHA-256 can be
		// recorded even though it streams to stdout.
		var buf bytes.Buffer
		if err := hbat.RunExperiment(ctx, name, opts, io.MultiWriter(os.Stdout, &buf)); err != nil {
			fail(err)
		}
		man.AddArtifactBytes(name+".txt", "-", buf.Bytes())
		fmt.Println()
		if *csvDir != "" && csvCapable[name] {
			path := filepath.Join(*csvDir, name+".csv")
			// The grid was just simulated for the text report, so the
			// CSV pass is served entirely from the sweep cache.
			writeArtifact(man, name+".csv", path, func(w io.Writer) error {
				return hbat.ExperimentCSV(ctx, name, base, w)
			})
			logger.Info("csv written", "path", path)
		}
	}
	if *htmlOut != "" {
		// Without -only every spec the report needs was simulated above,
		// so rendering it is memo hits only.
		writeArtifact(man, "report.html", *htmlOut, func(w io.Writer) error {
			return hbat.WriteReport(ctx, base, w, time.Now())
		})
		logger.Info("report written", "path", *htmlOut)
	}
	spansPath, err := obsFlags.FinishSpans()
	if err != nil {
		fail(err)
	}
	if spansPath != "" {
		logger.Info("spans written", "journal", obsFlags.SpansOut+".jsonl", "timeline", spansPath)
	}
	if *manifest != "" {
		man.RecordRuns(hbat.SweepEngine())
		if spansPath != "" {
			if err := man.AddArtifactFile("spans.perfetto.json", spansPath); err != nil {
				fail(err)
			}
		}
		if err := man.WriteFile(*manifest); err != nil {
			fail(err)
		}
		logger.Info("manifest written", "path", *manifest,
			"runs", len(man.Runs), "artifacts", len(man.Artifacts))
	}
	if !*quiet {
		s := hbat.SweepStats()
		logger.Info("sweep cache summary",
			"build_hits", s.BuildHits, "build_misses", s.BuildMisses,
			"spec_hits", s.SpecHits, "spec_misses", s.SpecMisses,
			"ckpt_hits", s.CkptHits, "ckpt_misses", s.CkptMisses)
	}
}

// writeArtifact creates path, fills it with render, and records the
// file in the manifest under name.
func writeArtifact(man *hbat.Manifest, name, path string, render func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := render(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	if err := man.AddArtifactFile(name, path); err != nil {
		fail(err)
	}
}

// fail prints the error and exits non-zero (130 for an interrupt, the
// conventional 128+SIGINT).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "hbat-experiments:", err)
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
