// Command hbatd is the sweep fabric daemon: a multi-tenant simulation
// service that accepts jobs over the versioned v1 HTTP API (see the
// api package) and serves rendered artifacts from a content-addressed
// result store. What executes a job depends on whether the process was
// given worker addresses:
//
//   - worker (no -worker): shards the job's specs across a local pool
//     and deduplicates identical specs across tenants through the
//     shared sweep engine (package transport).
//   - coordinator (-worker URL[,URL]): fronts a fleet of hbatd workers
//     behind the exact API one worker serves — rendezvous sharding on a
//     checkpoint-affinity key, retries on a different worker, verified
//     result fetches into its own store tier, GET/POST /v1/workers for
//     the health-probed registry (package fleet). It constructs no
//     engine and simulates nothing.
//
// One listener carries everything: /v1/... is the job API, and the
// observability endpoints (/metrics, /health, /ready, /debug/spans,
// /debug/pprof) share the same address. SIGINT/SIGTERM starts a
// graceful drain: /ready flips to 503, open jobs run to completion (or
// -drain-timeout), then the process exits. With -data-dir the result
// store persists across restarts: a restarted daemon reindexes it and
// serves every stored spec without re-simulating; a worker keeps its
// warmed checkpoints there too, under the one -store-disk budget.
//
// Usage:
//
//	hbatd -addr :9090                         # worker, in-memory store
//	hbatd -addr :9090 -data-dir /var/hbat     # results survive restarts
//	hbatd -addr :9090 -tenant-jobs 4 \
//	      -tenant-quota-bytes 67108864        # multi-tenant limits
//	hbatd -addr :9080 -worker http://h1:9090 -worker http://h2:9090
//	hbatd -addr :9080 -worker http://h1:9090,http://h2:9090 \
//	      -data-dir /var/hbat-coord -tenant-jobs 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hbat/internal/engine"
	"hbat/internal/fleet"
	"hbat/internal/obs"
	"hbat/internal/store"
	"hbat/internal/transport"
)

// workerList collects -worker flags; each occurrence may carry one
// base URL or a comma-separated list.
type workerList []string

func (w *workerList) String() string { return strings.Join(*w, ",") }

func (w *workerList) Set(v string) error {
	for _, addr := range strings.Split(v, ",") {
		addr = strings.TrimSuffix(strings.TrimSpace(addr), "/")
		if addr == "" {
			continue
		}
		if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
			return fmt.Errorf("worker %q: want a base URL like http://host:9090", addr)
		}
		*w = append(*w, addr)
	}
	return nil
}

func main() {
	// The flags fill the three layers' own Config structs; the role
	// decides which of local and fleet is used.
	var (
		sc    store.Config
		local transport.Config
		fc    fleet.Config
	)
	addr := flag.String("addr", ":9090", "listen address for the job API and observability endpoints")
	flag.StringVar(&sc.Dir, "data-dir", "", "persist the result store, and a worker's fast-forward checkpoints, in this directory (empty = memory only)")
	flag.Int64Var(&sc.MemBytes, "store-mem", 64<<20, "result store memory budget in bytes")
	flag.Int64Var(&sc.DiskBytes, "store-disk", 0, "result store disk budget in bytes (0 = unbounded; needs -data-dir)")
	flag.Int64Var(&sc.TenantQuotaBytes, "tenant-quota-bytes", 0, "stored bytes allowed per tenant (0 = unlimited)")
	flag.IntVar(&local.TenantJobs, "tenant-jobs", 0, "concurrently open jobs allowed per tenant (0 = unlimited)")
	flag.IntVar(&local.MaxSpecs, "max-specs", 0, "specs allowed per job (0 = 1024)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for open jobs before giving up")
	// Worker role: the engine-side knobs.
	flag.IntVar(&local.Workers, "workers", 0, "worker pool size (0 = 4)")
	// Coordinator role.
	flag.Var((*workerList)(&fc.Workers), "worker", "hbatd worker base URL; repeat the flag (or comma-separate) for a fleet. With one or more, this process coordinates them and simulates nothing itself")
	flag.DurationVar(&fc.ProbeEvery, "probe-every", time.Second, "worker health-probe period")
	flag.DurationVar(&fc.ProbeTimeout, "probe-timeout", 500*time.Millisecond, "timeout for one worker health probe")
	flag.IntVar(&fc.DownAfter, "down-after", 3, "consecutive failed probes before a worker is marked down")
	flag.DurationVar(&fc.RequestTimeout, "request-timeout", 10*time.Second, "timeout for each HTTP request to a worker")
	flag.DurationVar(&fc.BatchTimeout, "batch-timeout", 2*time.Minute, "end-to-end timeout for one dispatched batch; unfinished specs retry elsewhere")
	flag.IntVar(&fc.RetryMax, "retry-max", 3, "attempts allowed per spec before it fails terminally")
	flag.DurationVar(&fc.RetryBackoff, "retry-backoff", 50*time.Millisecond, "base backoff between retry waves (doubles per wave, capped)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	// A coordinator has no engine, so an engine-side flag set beside
	// -worker would be silently ignored: refuse it as the flag package
	// refuses a flag it cannot parse.
	coordinator := len(fc.Workers) > 0
	if coordinator {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				fmt.Fprintf(os.Stderr, "hbatd: -%s configures the engine, and with -worker this process is a coordinator without one\n", f.Name)
				os.Exit(2)
			}
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Setup attaches the logger and (with -spans) the span tracer to
	// the engine when there is one; with -obs set it additionally serves
	// the obs endpoints on their own listener — useful when the job API
	// port is not the one the dashboards scrape.
	var eng *engine.Engine
	role := "coordinator"
	if !coordinator {
		eng, role = engine.New(), "worker"
	}
	logger, osrv, err := obsFlags.Setup(ctx, os.Stderr, eng)
	if err != nil {
		obs.Fatal(err)
	}
	if osrv != nil {
		defer osrv.Close()
	}
	st, err := store.New(sc)
	if err != nil {
		obs.Fatal(err)
	}

	d := obs.Daemon{
		Addr:         *addr,
		Obs:          obs.Config{Engine: eng, Spans: obsFlags.Tracer(), Logger: logger},
		DrainTimeout: *drainTimeout,
	}
	if coordinator {
		fc.Store, fc.TenantJobs, fc.MaxSpecs, fc.Logger, fc.Spans = st, local.TenantJobs, local.MaxSpecs, logger, obsFlags.Tracer()
		coord, err := fleet.New(fc)
		if err != nil {
			obs.Fatal(err)
		}
		// /ready tracks the coordinator's accepting state so a load
		// balancer stops sending jobs the moment the drain starts.
		d.V1, d.Shutdown, d.Obs.Ready, d.Obs.Extra = coord.Handler(), coord.Shutdown, coord.Accepting, coord.MetricsFamilies
		d.Listening = []any{"role", role, "workers", len(fc.Workers), "data_dir", sc.Dir}
	} else {
		if sc.Dir != "" {
			if err := eng.SetCheckpointStore(st); err != nil {
				obs.Fatal(err)
			}
		}
		local.Engine, local.Store, local.Logger, local.Spans = eng, st, logger, obsFlags.Tracer()
		svc, err := transport.New(local)
		if err != nil {
			obs.Fatal(err)
		}
		// /ready tracks the engine's accepting state, which Shutdown
		// flips. The fabric's RED families (per-route/per-tenant request
		// counters and duration histograms, queue depth, quota gauges)
		// ride along on the same /metrics exposition.
		d.V1, d.Shutdown, d.Obs.Extra = svc.Handler(), svc.Shutdown, svc.MetricsFamilies
		d.Listening = []any{"role", role, "workers", local.Workers, "data_dir", sc.Dir}
	}
	if err := obsFlags.Serve(ctx, stop, logger, d); err != nil {
		obs.Fatal(err)
	}
	ss := st.Stats()
	stopped := []any{
		"role", role, "store_entries", ss.Entries, "store_puts", ss.Puts,
		"store_mem_hits", ss.MemHits, "store_disk_hits", ss.DiskHits,
	}
	if eng != nil {
		stopped = append(stopped, "runs_executed", eng.State().Executed)
	}
	logger.Info("hbatd stopped", stopped...)
}
