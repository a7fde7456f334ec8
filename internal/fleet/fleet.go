// Package fleet is the sweep fabric's coordinator tier: hbatd started
// with -worker URL,..., fanning v1 jobs out across many plain hbatd
// workers. It speaks the exact same wire contract as a single worker —
// an api.Client and curl cannot tell the difference. Its front end answers
// every spec its own store already holds at intake, as a worker's
// does, so a stored result never leaves the coordinator. Behind the API
// it keeps a live worker registry (static -worker list plus
// registrations, health-probed into an up/draining/down state
// machine), shards the open specs across live workers by rendezvous
// hashing on a checkpoint-affinity key, retries failed or timed-out
// specs on a different worker with capped exponential backoff, and
// files each artifact once, hash-verified, into its own store — the
// one its front end serves results from, as a worker's does; a result
// it did not file is a 404.
//
// Sharding uses rendezvous (highest-random-weight) hashing on the
// spec's affinity key — workload, budget, scale, page size, fast-
// forward depth, and seed, deliberately NOT the design — so every
// design of one workload lands on the same worker and that worker's
// checkpoint and program-build caches stay hot across the whole grid.
// Identical specs trivially share an affinity key, so duplicates land
// on one worker and collapse into its engine's singleflight. When a
// worker dies, only its keys re-rank onto survivors; the rest of the
// fleet keeps its assignments (the rendezvous property), which is what
// keeps caches warm through churn.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/spans"
	"hbat/internal/store"
	"hbat/internal/transport"
)

// ErrNoWorkers is returned (as a 503 api.Error on the wire) when a
// job's specs cannot be dispatched because no live worker remains.
var ErrNoWorkers = errors.New("fleet: no live workers")

// maxWorkers bounds the registry, static -worker addresses included:
// every entry is probed each ProbeEvery.
const maxWorkers = 256

// Config wires a Coordinator. Store is required; Workers may start
// empty (workers can register over POST /v1/workers).
type Config struct {
	// Workers are the static worker base URLs ("http://host:port")
	// probed from startup.
	Workers []string
	// Store is the coordinator's own artifact tier: its front end
	// answers a stored key at intake; any other result is fetched from
	// its worker once, filed here under the job's tenant, and served
	// from here alone.
	Store *store.Store
	// Client, when non-nil, builds the api.Client for a worker address
	// — the test seam. The default is api.NewClient with
	// RequestTimeout applied.
	Client func(addr string) *api.Client

	// ProbeEvery is the health-probe period (default 1s).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one /ready or /v1/ping probe (default
	// 500ms).
	ProbeTimeout time.Duration
	// DownAfter is the consecutive-failure count that marks a worker
	// down (default 3). A single successful probe brings it back up.
	DownAfter int

	// RequestTimeout bounds each HTTP request to a worker (default 10s)
	// — a hung worker fails one request at a time instead of wedging a
	// job forever.
	RequestTimeout time.Duration
	// BatchTimeout bounds one dispatched batch end to end (default
	// 2m); a batch that neither completes nor fails by then counts as
	// timed out and its unfinished specs retry elsewhere.
	BatchTimeout time.Duration
	// RetryMax is the attempt cap per spec (default 3: one dispatch
	// plus two retries).
	RetryMax int
	// RetryBackoff is the base backoff between retry waves (default
	// 50ms), doubling per wave and capped at 16x.
	RetryBackoff time.Duration

	// TenantJobs, when > 0, bounds concurrently open jobs per tenant.
	TenantJobs int
	// MaxSpecs, when > 0, bounds specs per job (default 1024).
	MaxSpecs int
	// Logger receives job and fleet transitions.
	Logger *slog.Logger
	// Spans, when non-nil, records the coordinator's own span tree:
	// job roots, per-batch dispatch spans, retry spans, and result
	// fetches, all under the client's propagated trace id.
	Spans *spans.Tracer
}

// worker is one registry entry. state transitions are driven by the
// prober; dispatched/retried feed the fleet metrics.
type worker struct {
	addr   string
	client *api.Client

	mu         sync.Mutex
	state      string // api.WorkerUp | WorkerDraining | WorkerDown
	tool       string
	fails      int
	lastProbe  time.Time
	dispatched uint64
}

func (w *worker) snapshot() api.Worker {
	w.mu.Lock()
	defer w.mu.Unlock()
	age := int64(-1)
	if !w.lastProbe.IsZero() {
		age = time.Since(w.lastProbe).Milliseconds()
	}
	return api.Worker{
		Addr: w.addr, State: w.state, Tool: w.tool, Fails: w.fails,
		LastProbeMs: age,
	}
}

// Coordinator is hbatd in its coordinator role: the v1 Front (Handler,
// Accepting — the /ready answer — and Shutdown are its) over the fleet
// executor. Create with New, mount Handler, stop with Shutdown.
type Coordinator struct {
	*transport.Front
	cfg Config

	mu        sync.Mutex
	workers   map[string]*worker
	retries   uint64
	noWorkers uint64

	probeCancel context.CancelFunc
	probeDone   chan struct{}
	jobWG       sync.WaitGroup
}

// New builds the coordinator, registers the static workers, and starts
// the prober. Workers start in the down state and are admitted to the
// shard ring by their first successful probe (which New performs
// synchronously once, so a fleet whose workers are already serving is
// dispatchable immediately).
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, errors.New("fleet: Config.Store is required")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = 2 * time.Minute
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	c := &Coordinator{cfg: cfg, workers: make(map[string]*worker)}
	c.Front = transport.NewFront(
		transport.Config{
			Store: cfg.Store, TenantJobs: cfg.TenantJobs, MaxSpecs: cfg.MaxSpecs,
			Logger: cfg.Logger, Spans: cfg.Spans,
		},
		remote{c})
	c.Front.Handle(api.PathWorkers, c.handleWorkers)
	for _, addr := range cfg.Workers {
		if _, err := c.addWorker(addr); err != nil {
			return nil, err
		}
	}
	c.probeAll(context.Background())
	probeCtx, cancel := context.WithCancel(context.Background())
	c.probeCancel = cancel
	c.probeDone = make(chan struct{})
	go c.probeLoop(probeCtx)
	return c, nil
}

func (c *Coordinator) newClient(addr string) *api.Client {
	if c.cfg.Client != nil {
		cl := c.cfg.Client(addr)
		if cl.Timeout == 0 {
			cl.Timeout = c.cfg.RequestTimeout
		}
		return cl
	}
	cl := api.NewClient(addr)
	cl.Timeout = c.cfg.RequestTimeout
	return cl
}

// addWorker registers addr (idempotent) and returns its entry. A new
// address is refused once the registry holds maxWorkers.
func (c *Coordinator) addWorker(addr string) (*worker, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[addr]; ok {
		return w, nil
	}
	if len(c.workers) >= maxWorkers {
		return nil, fmt.Errorf("fleet: worker registry is full (%d workers)", maxWorkers)
	}
	w := &worker{addr: addr, client: c.newClient(addr), state: api.WorkerDown}
	c.workers[addr] = w
	return w, nil
}

// probeLoop drives the health state machine until Shutdown.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	tick := time.NewTicker(c.cfg.ProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.probeAll(ctx)
		}
	}
}

// registry returns every registered worker, sorted by address.
func (c *Coordinator) registry() []*worker {
	c.mu.Lock()
	ws := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].addr < ws[j].addr })
	return ws
}

func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range c.registry() {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.probeWorker(ctx, w)
		}(w)
	}
	wg.Wait()
}

// probeWorker runs one /ready (+ first-contact /v1/ping) probe and
// advances the worker's state machine: 200 → up, 503 → draining
// (finishing in-flight work, not accepting new), probe error → fails++
// and down at DownAfter consecutive failures.
func (c *Coordinator) probeWorker(ctx context.Context, w *worker) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	ready, err := w.client.Ready(pctx)

	w.mu.Lock()
	prev := w.state
	w.lastProbe = time.Now()
	switch {
	case err != nil:
		w.fails++
		if w.fails >= c.cfg.DownAfter || prev == api.WorkerDown {
			w.state = api.WorkerDown
		}
	case ready:
		w.fails = 0
		w.state = api.WorkerUp
	default:
		w.fails = 0
		w.state = api.WorkerDraining
	}
	state, needTool := w.state, w.tool == "" && err == nil
	w.mu.Unlock()

	if needTool {
		hctx, hcancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
		tool, perr := w.client.Ping(hctx)
		hcancel()
		if perr == nil {
			w.mu.Lock()
			w.tool = tool
			w.mu.Unlock()
		}
	}
	if state != prev {
		c.cfg.Logger.Info("worker state", "worker", w.addr, "from", prev, "to", state)
	}
}

// live returns the workers currently eligible for new dispatches.
func (c *Coordinator) live() []*worker {
	var ws []*worker
	for _, w := range c.registry() {
		w.mu.Lock()
		up := w.state == api.WorkerUp
		w.mu.Unlock()
		if up {
			ws = append(ws, w)
		}
	}
	return ws
}

// affinityKey is the rendezvous input: everything that names a
// worker's warm checkpoint/build state for a spec — and not the
// design, so a whole design sweep of one workload shares a worker.
func affinityKey(spec engine.RunSpec) string {
	return fmt.Sprintf("%s|%v|%d|%d|%d|%d",
		spec.Workload, spec.Budget, spec.Scale, spec.PageSize, spec.FastForward, spec.Seed)
}

// rank orders workers for key by rendezvous (highest-random-weight)
// hashing: every (key, worker) pair gets an independent score and the
// key prefers workers in descending score order. Removing one worker
// only ever moves that worker's keys.
func rank(key string, ws []*worker) []*worker {
	type scored struct {
		w *worker
		s uint64
	}
	out := make([]scored, len(ws))
	for i, w := range ws {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{0})
		h.Write([]byte(w.addr))
		out[i] = scored{w: w, s: h.Sum64()}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].s != out[j].s {
			return out[i].s > out[j].s
		}
		return out[i].w.addr < out[j].w.addr
	})
	ranked := make([]*worker, len(out))
	for i, sc := range out {
		ranked[i] = sc.w
	}
	return ranked
}

// WorkersSnapshot returns the registry for GET /v1/workers, sorted by
// address.
func (c *Coordinator) WorkersSnapshot() []api.Worker {
	ws := c.registry()
	out := make([]api.Worker, len(ws))
	for i, w := range ws {
		out[i] = w.snapshot()
	}
	return out
}
