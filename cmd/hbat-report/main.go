// Command hbat-report regenerates the paper's evaluation and writes a
// self-contained HTML report (inline SVG charts, no external assets),
// plus a run-provenance manifest recording the spec list and the
// report's SHA-256.
//
// Usage:
//
//	hbat-report -o report.html [-scale small] [-par N] [-seed 1]
//	            [-manifest manifest.json] [-obs :8090]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"hbat/internal/engine"
	"hbat/internal/harness"
	"hbat/internal/obs"
	"hbat/internal/report"
	"hbat/internal/workload"
)

func main() {
	var (
		out      = flag.String("o", "report.html", "output HTML file")
		scale    = flag.String("scale", "small", "workload scale: test, small, or full")
		par      = flag.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 1, "seed for randomized structures")
		manifest = flag.String("manifest", "manifest.json", "write a run-provenance manifest (runs + report SHA-256) to this file (\"\" = off)")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := engine.New()
	logger, srv, err := obsFlags.Setup(ctx, os.Stderr, eng)
	if err != nil {
		fail(err)
	}
	if srv != nil {
		defer srv.Close()
	}

	var sc workload.Scale
	switch *scale {
	case "test":
		sc = workload.ScaleTest
	case "small":
		sc = workload.ScaleSmall
	case "full":
		sc = workload.ScaleFull
	default:
		fail(fmt.Errorf("unknown scale %q", *scale))
	}

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}

	start := time.Now()
	opts := harness.Options{
		Engine: eng, Scale: sc, Parallelism: *par, Seed: *seed,
		Progress: func(p engine.Progress) {
			if p.Done%20 == 0 || p.Done == p.Total {
				logger.Info("sweep progress", "done", p.Done, "total", p.Total,
					"elapsed_s", time.Since(start).Seconds(), "eta_s", p.ETA.Seconds())
			}
		},
	}
	if err := report.Generate(ctx, f, opts, nil, time.Now()); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	logger.Info("report written", "path", *out)

	spansPath, err := obsFlags.FinishSpans()
	if err != nil {
		fail(err)
	}
	if spansPath != "" {
		logger.Info("spans written", "journal", obsFlags.SpansOut+".jsonl", "timeline", spansPath)
	}
	if *manifest != "" {
		m := engine.NewManifest("hbat-report", time.Now())
		m.RecordRuns(eng)
		if err := m.AddArtifactFile("report.html", *out); err != nil {
			fail(err)
		}
		if spansPath != "" {
			if err := m.AddArtifactFile("spans.perfetto.json", spansPath); err != nil {
				fail(err)
			}
		}
		if err := m.WriteFile(*manifest); err != nil {
			fail(err)
		}
		logger.Info("manifest written", "path", *manifest,
			"runs", len(m.Runs), "artifacts", len(m.Artifacts))
	}
}

// fail prints the error and exits non-zero (130 for an interrupt, the
// conventional 128+SIGINT).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "hbat-report:", err)
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
