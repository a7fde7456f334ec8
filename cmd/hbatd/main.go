// Command hbatd is the sweep fabric daemon: a multi-tenant simulation
// service that accepts jobs over the versioned v1 HTTP API (see the
// api package), shards their specs across a worker pool, deduplicates
// identical specs across tenants through the shared sweep engine, and
// serves rendered artifacts from a content-addressed result store.
//
// One listener carries everything: /v1/... is the job API, and the
// observability endpoints (/metrics, /health, /ready, /debug/spans,
// /debug/pprof) share the same address. SIGINT/SIGTERM starts a
// graceful drain: /ready flips to 503, open jobs run to completion (or
// -drain-timeout), then the process exits. With -data-dir the result
// store persists across restarts: a restarted daemon reindexes it and
// serves every stored spec without re-simulating.
//
// Usage:
//
//	hbatd -addr :9090                         # in-memory store
//	hbatd -addr :9090 -data-dir /var/hbat     # results survive restarts
//	hbatd -addr :9090 -tenant-jobs 4 \
//	      -tenant-quota-bytes 67108864        # multi-tenant limits
package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hbat/internal/engine"
	"hbat/internal/obs"
	"hbat/internal/store"
	"hbat/internal/transport"
)

func main() {
	var (
		addr         = flag.String("addr", ":9090", "listen address for the job API and observability endpoints")
		workers      = flag.Int("workers", 0, "worker pool size (0 = 4)")
		ckptDir      = flag.String("ckpt-dir", "", "persist fast-forward checkpoints in this directory (reused across restarts)")
		dataDir      = flag.String("data-dir", "", "persist the result store in this directory (empty = memory only)")
		storeMem     = flag.Int64("store-mem", 64<<20, "result store memory budget in bytes")
		storeDisk    = flag.Int64("store-disk", 0, "result store disk budget in bytes (0 = unbounded; needs -data-dir)")
		tenantQuota  = flag.Int64("tenant-quota-bytes", 0, "stored bytes allowed per tenant (0 = unlimited)")
		tenantJobs   = flag.Int("tenant-jobs", 0, "concurrently open jobs allowed per tenant (0 = unlimited)")
		maxSpecs     = flag.Int("max-specs", 0, "specs allowed per job (0 = 1024)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for open jobs before giving up")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := engine.New()
	// Setup attaches the logger and (with -spans) the span tracer to the
	// engine; with -obs set it additionally serves the obs endpoints on
	// their own listener — useful when the job API port is not the one
	// the dashboards scrape.
	logger, osrv, err := obsFlags.Setup(ctx, os.Stderr, eng)
	if err != nil {
		fail(err)
	}
	if osrv != nil {
		defer osrv.Close()
	}

	if *ckptDir != "" {
		if err := eng.SetCheckpointDir(*ckptDir); err != nil {
			fail(err)
		}
	}

	st, err := store.New(store.Config{
		Dir:              *dataDir,
		MemBytes:         *storeMem,
		DiskBytes:        *storeDisk,
		TenantQuotaBytes: *tenantQuota,
	})
	if err != nil {
		fail(err)
	}

	svc, err := transport.New(transport.Config{
		Engine:     eng,
		Store:      st,
		Workers:    *workers,
		TenantJobs: *tenantJobs,
		MaxSpecs:   *maxSpecs,
		Logger:     logger,
		Spans:      obsFlags.Tracer(),
	})
	if err != nil {
		fail(err)
	}

	// /ready tracks the engine's accepting state, which Shutdown flips —
	// a load balancer stops sending work the moment the drain starts.
	err = obsFlags.Serve(ctx, stop, logger, obs.Daemon{
		Tool: "hbatd",
		Addr: *addr,
		V1:   svc.Handler(),
		Obs: obs.Config{
			Engine: eng,
			Spans:  obsFlags.Tracer(),
			Logger: logger,
			// The fabric's RED families (per-route/per-tenant request
			// counters and duration histograms, queue depth, quota gauges)
			// ride along on the same /metrics exposition.
			Extra: svc.MetricsFamilies,
		},
		Shutdown:     svc.Shutdown,
		DrainTimeout: *drainTimeout,
		Listening:    []any{"workers", *workers, "data_dir", *dataDir},
		Stopped: func() []any {
			ss := st.Stats()
			return []any{
				"runs_executed", eng.State().Executed,
				"store_entries", ss.Entries,
				"store_mem_hits", ss.MemHits, "store_disk_hits", ss.DiskHits,
			}
		},
	})
	if err != nil {
		fail(err)
	}
}

func fail(err error) { obs.Fatal("hbatd", err) }
