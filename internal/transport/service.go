package transport

// The worker role's executor: a worker pool over a sweep engine and a
// result store. The front end has already answered every spec whose key
// the store held at intake (which is how a restarted worker serves its
// previous results); the open specs shard across the pool by spec key.
// A worker checks the store once more, for a key filed since intake,
// then runs the engine (whose memo deduplicates concurrent and repeated
// specs across tenants), renders the canonical artifact, and files it
// into the store under the submitting tenant.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"hbat/api"
	"hbat/internal/engine"
	"hbat/internal/spans"
	"hbat/internal/store"
)

// Config wires a Service. Engine and Store are required.
type Config struct {
	// Engine executes specs. One shared engine is what gives
	// cross-tenant memo hits; the service never creates its own.
	Engine *engine.Engine
	// Store holds rendered artifacts, content-addressed by spec key.
	// The front end answers a stored key at intake and serves results
	// from it, so every front end needs one, in either role.
	Store *store.Store
	// Workers sizes the worker pool (default 4). Specs shard across
	// workers by spec key, so an identical spec submitted twice lands
	// on the same worker and the second ride is a pure cache read.
	Workers int
	// TenantJobs, when > 0, bounds concurrently open jobs per tenant;
	// submissions beyond it are rejected with 429.
	TenantJobs int
	// MaxSpecs, when > 0, bounds specs per job (413 beyond). Default
	// 1024.
	MaxSpecs int
	// Logger, when non-nil, receives one record per job transition, and
	// an error-level record with the stack for every spec that panics.
	Logger *slog.Logger
	// Spans, when non-nil, feeds each job's SSE event stream with the
	// live run-root spans of its own runs.
	Spans *spans.Tracer
}

// Service is hbatd in its worker role: the v1 Front over a local worker
// pool.
// Create with New, mount Handler, stop with Shutdown.
type Service struct {
	*Front
	pool *pool
}

// New starts the worker pool and returns the service.
func New(cfg Config) (*Service, error) {
	if cfg.Engine == nil || cfg.Store == nil {
		return nil, errors.New("transport: Config.Engine and Config.Store are required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	p := &pool{
		engine: cfg.Engine,
		run:    cfg.Engine.Run,
		store:  cfg.Store,
		spans:  cfg.Spans,
		log:    cfg.Logger,
		queues: make([]chan specTask, cfg.Workers),
	}
	if p.log == nil {
		p.log = slog.New(slog.DiscardHandler)
	}
	for i := range p.queues {
		// 64 deep: a figure grid's share of one shard queues without
		// parking the enqueue goroutine.
		p.queues[i] = make(chan specTask, 64)
		p.wg.Add(1)
		go p.worker(p.queues[i])
	}
	return &Service{Front: NewFront(cfg, p), pool: p}, nil
}

// specTask is one spec of one job, queued to a worker. enq is the
// tracer mark taken at enqueue time, so the worker can record the
// spec's queue wait as a retroactive span.
type specTask struct {
	job *Job
	idx int
	enq time.Duration
}

// pool is the local Executor.
type pool struct {
	engine *engine.Engine
	// run is engine.Run; tests substitute one that panics.
	run   func(context.Context, engine.RunSpec) engine.RunResult
	store *store.Store
	spans *spans.Tracer
	log   *slog.Logger

	queues []chan specTask
	wg     sync.WaitGroup
	// enq tracks in-flight enqueue goroutines; Close waits for it
	// before closing the queues so a started job never sends on a
	// closed channel.
	enq sync.WaitGroup
}

// Admit refuses work while the engine is draining (which is also what
// /ready reports).
func (p *pool) Admit() error {
	if !p.engine.Accepting() {
		return errors.New("draining: not accepting new jobs")
	}
	return nil
}

// Start shards the job's open specs across the pool by spec key:
// identical specs always land on the same worker queue, so a duplicate
// waits behind the first, never races it.
func (p *pool) Start(j *Job, open []int) {
	p.enq.Add(1)
	go func() {
		defer p.enq.Done()
		for _, i := range open {
			p.queues[shard(j.Keys[i], len(p.queues))] <- specTask{job: j, idx: i, enq: p.spans.Now()}
		}
	}()
}

// Close flips the engine's Accepting state (so /ready reports 503),
// lets every queued spec run, and waits for the workers to exit.
func (p *pool) Close(ctx context.Context) error {
	p.engine.SetAccepting(false)
	p.enq.Wait()
	for _, q := range p.queues {
		close(q)
	}
	done := make(chan struct{})
	go func() { p.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// shard maps a spec key to a worker queue. The modulus is taken on the
// unsigned hash: converted first, a hash with its top bit set is a
// negative int on a 32-bit platform.
func shard(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// worker drains one queue until Close closes it.
func (p *pool) worker(queue <-chan specTask) {
	defer p.wg.Done()
	for t := range queue {
		p.runSpec(t)
	}
}

// runSpec executes (or store-serves) one spec and reports its terminal
// status. A spec that panics fails with an error naming the panic; the
// worker goes on to the next spec.
func (p *pool) runSpec(t specTask) {
	j, key := t.job, t.job.Keys[t.idx]
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("spec panicked: %v", r)
			p.log.Error("spec panicked", "job", j.ID, "tenant", j.Tenant, "spec_key", key,
				"trace_id", j.TraceID, "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
			if sp := p.spans.Start(j.Trace, j.Root, "panic"); sp != nil {
				sp.SetAttr("spec_key", key).SetAttr("error", msg).End()
			}
			j.Finish(t.idx, api.SpecStatus{State: api.StateFailed, Error: msg})
		}
	}()
	j.Running("", t.idx)

	// The time between enqueue and this pickup is the spec's queue
	// wait — recorded retroactively so zero-wait specs still show a
	// (tiny) span and loaded shards show the backlog.
	if sp := p.spans.StartAt(j.Trace, j.Root, "queue_wait", t.enq); sp != nil {
		sp.SetAttr("spec_key", key).End()
	}

	// Intake answered every key stored when the job arrived; this
	// answers a key stored between intake and pickup. Specs of one key
	// queue on one shard, and simulate drops the engine's copy once the
	// store has the artifact, so without this lookup the second of two
	// in-flight jobs on one key (or the second copy of a key within one
	// job) would simulate it again.
	if data, sha, ok := p.store.Get(key); ok {
		finishStored(j, t.idx, sha, data, p.spans)
		return
	}
	// Thread the job's trace identity into the engine: its run root
	// parents under the job span, and the shared trace id lands in
	// the engine's logs and manifest records.
	ctx := spans.ContextWithTrace(context.Background(),
		spans.TraceContext{TraceID: j.TraceID, SpanID: j.SpanID})
	j.Finish(t.idx, p.simulate(ctx, j.Tenant, key, j.Runs[t.idx]))
}

// simulate runs one spec through the engine, renders the canonical
// artifact, and files it into the store. ctx carries the job's trace
// identity into the engine's span tracer and logs.
func (p *pool) simulate(ctx context.Context, tenant, key string, spec engine.RunSpec) api.SpecStatus {
	res := p.run(ctx, spec)
	if res.Err != nil {
		return api.SpecStatus{State: api.StateFailed, Error: res.Err.Error()}
	}
	data := engine.Artifact(engine.Wire(res))
	st := api.SpecStatus{
		State:  api.StateDone,
		Cached: res.Cached,
		WallMs: float64(res.Wall.Microseconds()) / 1e3,
	}
	sha, err := p.store.Put(tenant, key, data)
	if err != nil {
		// Quota or disk trouble: the simulation still succeeded, the
		// artifact is just not servable from the store. The status
		// carries the reason; the result remains reproducible.
		st.Error = err.Error()
		st.SHA256 = engine.ArtifactSHA256(data)
		return st
	}
	// The store answers the next request for this key before the
	// engine is asked, so the engine's copy would only be retained.
	p.engine.Forget(spec)
	st.ResultURL = api.PathResults + key
	st.SHA256 = sha
	st.Artifact = data
	return st
}
