// Command hbatc is the sweep fabric coordinator: it fronts a fleet of
// hbatd workers behind the exact v1 job API one worker serves, so
// hbat.Dial, curl, and every existing client work unchanged — only
// the capacity changes. Specs shard across live workers by rendezvous
// hashing on a checkpoint-affinity key (all designs of one workload
// co-locate, keeping worker caches hot), failed or timed-out specs
// retry on a different worker with capped exponential backoff, and
// each completed artifact is fetched from its computing worker once,
// verified against the worker-reported content hash, and served from
// the coordinator's own content-addressed store after.
//
// Workers come from repeated (or comma-separated) -worker flags and
// from runtime registrations (POST /v1/workers); each is health-probed
// into an up/draining/down state machine, and GET /v1/workers shows
// the registry. SIGINT/SIGTERM starts a graceful drain: /ready flips
// to 503, open jobs run to completion (or -drain-timeout), then the
// process exits.
//
// Usage:
//
//	hbatc -addr :9080 -worker http://host1:9090 -worker http://host2:9090
//	hbatc -addr :9080 -worker http://h1:9090,http://h2:9090 \
//	      -data-dir /var/hbatc -tenant-jobs 4
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

	"hbat/internal/fleet"
	"hbat/internal/obs"
	"hbat/internal/store"
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
	var workers workerList
	flag.Var(&workers, "worker", "hbatd worker base URL; repeat the flag (or comma-separate) for a fleet")
	var (
		addr           = flag.String("addr", ":9080", "listen address for the job API and observability endpoints")
		probeEvery     = flag.Duration("probe-every", time.Second, "worker health-probe period")
		probeTimeout   = flag.Duration("probe-timeout", 500*time.Millisecond, "timeout for one worker health probe")
		downAfter      = flag.Int("down-after", 3, "consecutive failed probes before a worker is marked down")
		requestTimeout = flag.Duration("request-timeout", 10*time.Second, "timeout for each HTTP request to a worker")
		batchTimeout   = flag.Duration("batch-timeout", 2*time.Minute, "end-to-end timeout for one dispatched batch; unfinished specs retry elsewhere")
		retryMax       = flag.Int("retry-max", 3, "attempts allowed per spec before it fails terminally")
		retryBackoff   = flag.Duration("retry-backoff", 50*time.Millisecond, "base backoff between retry waves (doubles per wave, capped)")
		dataDir        = flag.String("data-dir", "", "persist the coordinator result store in this directory (empty = memory only)")
		storeMem       = flag.Int64("store-mem", 64<<20, "result store memory budget in bytes")
		storeDisk      = flag.Int64("store-disk", 0, "result store disk budget in bytes (0 = unbounded; needs -data-dir)")
		tenantQuota    = flag.Int64("tenant-quota-bytes", 0, "stored bytes allowed per tenant (0 = unlimited)")
		tenantJobs     = flag.Int("tenant-jobs", 0, "concurrently open jobs allowed per tenant (0 = unlimited)")
		maxSpecs       = flag.Int("max-specs", 0, "specs allowed per job (0 = 1024)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for open jobs before giving up")
	)
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// No engine here — the coordinator never simulates; Setup still
	// wires the logger, the span tracer, and (with -obs) a separate
	// observability listener.
	logger, osrv, err := obsFlags.Setup(ctx, os.Stderr, nil)
	if err != nil {
		fail(err)
	}
	if osrv != nil {
		defer osrv.Close()
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

	coord, err := fleet.New(fleet.Config{
		Workers:        workers,
		Store:          st,
		ProbeEvery:     *probeEvery,
		ProbeTimeout:   *probeTimeout,
		DownAfter:      *downAfter,
		RequestTimeout: *requestTimeout,
		BatchTimeout:   *batchTimeout,
		RetryMax:       *retryMax,
		RetryBackoff:   *retryBackoff,
		TenantJobs:     *tenantJobs,
		MaxSpecs:       *maxSpecs,
		Logger:         logger,
		Spans:          obsFlags.Tracer(),
	})
	if err != nil {
		fail(err)
	}

	// /ready tracks the coordinator's accepting state so a load balancer
	// stops sending jobs the moment the drain starts.
	err = obsFlags.Serve(ctx, stop, logger, obs.Daemon{
		Tool: "hbatc",
		Addr: *addr,
		V1:   coord.Handler(),
		Obs: obs.Config{
			Spans:  obsFlags.Tracer(),
			Ready:  coord.Accepting,
			Extra:  coord.MetricsFamilies,
			Logger: logger,
		},
		Shutdown:     coord.Shutdown,
		DrainTimeout: *drainTimeout,
		Listening:    []any{"workers", len(workers), "data_dir", *dataDir},
		Stopped: func() []any {
			ss := st.Stats()
			return []any{
				"store_entries", ss.Entries, "store_puts", ss.Puts,
				"store_mem_hits", ss.MemHits, "store_disk_hits", ss.DiskHits,
			}
		},
	})
	if err != nil {
		fail(err)
	}
}

func fail(err error) { obs.Fatal("hbatc", err) }
