package main

// layers.go is the benchmark's adapter to the program under test: the
// only file under bench/ that imports an hbat package. Every layer is
// measured from outside, through the public functions called here, so
// this file is the API surface a later refactor must keep compiling —
// a change that forces an edit here has changed what the benchmark
// measures and needs a fresh baseline. Nothing here keeps time (the
// workloads and the ladder do); the functions below only do the work.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hbat/api"
	"hbat/internal/bpred"
	"hbat/internal/cache"
	"hbat/internal/ckpt"
	"hbat/internal/cpu"
	"hbat/internal/emu"
	"hbat/internal/emu/sblock"
	"hbat/internal/engine"
	"hbat/internal/fleet"
	"hbat/internal/harness"
	"hbat/internal/isa"
	"hbat/internal/obs"
	"hbat/internal/prog"
	"hbat/internal/store"
	"hbat/internal/tlb"
	"hbat/internal/transport"
	"hbat/internal/vm"
	"hbat/internal/workload"
)

// pageSize is the baseline machine's page size; every spec the
// benchmark generates uses it.
const pageSize = 4096

func workloadNames() []string { return workload.Names() }
func designNames() []string   { return tlb.DesignOrder }

// jobRequest and simResult are the wire types the generator and the
// client loop pass around.
type (
	jobRequest = api.JobRequest
	simResult  = api.Result
)

// ---------------------------------------------------------------------
// workload, emu, sblock

// program is one built workload.
type program struct {
	name string
	p    *prog.Program
}

func buildProgram(name, scale string) (program, error) {
	sc, err := engine.ParseScale(scale)
	if err != nil {
		return program{}, err
	}
	w, err := workload.ByName(name)
	if err != nil {
		return program{}, err
	}
	p, err := w.Build(prog.Budget32, sc)
	return program{name: name, p: p}, err
}

// buildPrograms builds all ten workloads at scale, in Table 3 order.
func buildPrograms(scale string) ([]program, error) {
	var ps []program
	for _, n := range workloadNames() {
		p, err := buildProgram(n, scale)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// emuRun executes p to Halt on the reference interpreter and returns
// its functional instruction count — the number every timing run of p
// must account for (committed + fast-forwarded).
func emuRun(p program) (uint64, error) {
	m, err := emu.New(p.p, pageSize)
	if err != nil {
		return 0, err
	}
	if err := m.Run(0); err != nil {
		return 0, err
	}
	return m.InstCount, nil
}

// functionalCounts maps every workload to its emuRun count at scale.
func functionalCounts(scale string) (map[string]uint64, error) {
	ps, err := buildPrograms(scale)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]uint64, len(ps))
	for _, p := range ps {
		if counts[p.name], err = emuRun(p); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

type sblockStats struct{ BlocksBuilt, InterpSteps, SlowFills uint64 }

// sblockRun executes p to Halt on the superblock-translated engine.
func sblockRun(p program) (uint64, sblockStats, error) {
	m, err := emu.New(p.p, pageSize)
	if err != nil {
		return 0, sblockStats{}, err
	}
	e := sblock.New(m)
	if err := e.Run(0); err != nil {
		return 0, sblockStats{}, err
	}
	st := e.Stats()
	return m.InstCount, sblockStats{st.BlocksBuilt, st.InterpSteps, st.SlowFills}, nil
}

// ---------------------------------------------------------------------
// recorded reference streams for the tlb, cache and bpred replays

type memRef struct {
	vaddr uint64
	write bool
}

type branchRef struct {
	pc    uint64
	taken bool
}

// refStream is one program's data-reference and conditional-branch
// history, recorded by stepping the interpreter, with the address
// space the references resolve in.
type refStream struct {
	as       *vm.AddressSpace
	refs     []memRef
	branches []branchRef
}

func recordStream(p program) (refStream, error) {
	m, err := emu.New(p.p, pageSize)
	if err != nil {
		return refStream{}, err
	}
	s := refStream{as: m.AS}
	m.OnMemRef = func(vaddr uint64, write bool) {
		s.refs = append(s.refs, memRef{vaddr, write})
	}
	for !m.Halted {
		pc, nb, nt := m.PC, m.BranchCount, m.TakenCount
		if err := m.Step(); err != nil {
			return refStream{}, err
		}
		if m.BranchCount > nb {
			s.branches = append(s.branches, branchRef{pc, m.TakenCount > nt})
		}
	}
	return s, nil
}

// tlbReplayer returns a function that replays every stream's data
// references once through design — BeginCycle, Lookup, and Fill on a
// miss, one request per cycle so no request is refused a port — and
// returns the lookups made. The device stays warm between calls. The
// interpreter does not record base registers, so the pretranslation
// tag is derived from the page number.
func tlbReplayer(design string, streams []refStream, seed uint64) (func() (int, error), error) {
	devs := make([]tlb.Device, len(streams))
	for i, s := range streams {
		d, err := tlb.NewFromSpec(design, s.as, seed)
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	var now int64
	return func() (int, error) {
		n := 0
		for i, s := range streams {
			d, bits := devs[i], s.as.PageBits()
			for _, r := range s.refs {
				now++
				vpn := r.vaddr >> bits
				d.BeginCycle(now)
				req := tlb.Request{VPN: vpn, Write: r.write, Base: isa.Reg(1 + vpn%16), Load: !r.write}
				if d.Lookup(req, now).Outcome == tlb.Miss {
					if _, err := d.Fill(vpn, now); err != nil {
						return n, err
					}
				}
				n++
			}
		}
		return n, nil
	}, nil
}

// cacheReplayer replays the streams' data addresses through one
// baseline data cache (BeginCycle + Access) and returns the accesses.
func cacheReplayer(streams []refStream) func() int {
	c := cache.New(cache.DefaultDCache())
	var now int64
	return func() int {
		n := 0
		for _, s := range streams {
			for _, r := range s.refs {
				now++
				c.BeginCycle(now)
				c.Access(r.vaddr, r.write, now)
				n++
			}
		}
		return n
	}
}

// bpredReplayer replays the streams' conditional branches through one
// baseline predictor (PredictDir + Resolve) and returns the branches.
func bpredReplayer(streams []refStream) func() int {
	p := bpred.New(bpred.DefaultConfig())
	return func() int {
		n := 0
		for _, s := range streams {
			for _, b := range s.branches {
				taken, snap := p.PredictDir(b.pc)
				p.Resolve(b.pc, taken, b.taken, snap)
				n++
			}
		}
		return n
	}
}

// ---------------------------------------------------------------------
// cpu and ckpt

// cpuMachine is one baseline machine (Table 1) over a program, built
// but not yet run.
type cpuMachine struct{ m *cpu.Machine }

func newCPU(p program, design string, seed uint64) (cpuMachine, error) {
	cfg := cpu.DefaultConfig()
	cfg.Seed = seed
	m, err := cpu.NewWithDesign(p.p, cfg, design)
	return cpuMachine{m}, err
}

// run simulates from reset to Halt and returns committed instructions
// and cycles.
func (c cpuMachine) run() (insts uint64, cycles int64, err error) {
	if err := c.m.Run(); err != nil {
		return 0, 0, err
	}
	return c.m.Stats().Committed, c.m.Stats().Cycles, nil
}

// checkpoint is one warmed fast-forward checkpoint of a program.
type checkpoint struct {
	c *ckpt.Checkpoint
}

// ckptBuild runs the functional warm-up over p's first n instructions
// with the baseline machine's cache and predictor geometry — the
// BuildConfig the engine derives for a fast-forwarded spec.
func ckptBuild(ctx context.Context, p program, n uint64) (checkpoint, error) {
	cfg := cpu.DefaultConfig()
	c, err := ckpt.Build(ctx, p.p, ckpt.BuildConfig{
		PageSize: pageSize, FastForward: n,
		ICache: cfg.ICache, DCache: cfg.DCache, Branch: cfg.Branch,
	})
	return checkpoint{c}, err
}

func (c checkpoint) encode() []byte { return c.c.Encode() }

func ckptDecode(data []byte) error {
	_, err := ckpt.Decode(data)
	return err
}

// cpuRestore constructs a machine over p and restores c into it: the
// per-run cost a fast-forwarded spec pays before its first cycle.
func cpuRestore(p program, c checkpoint) error {
	cfg := cpu.DefaultConfig()
	cfg.FastForward = c.c.FastForward
	cfg.Checkpoint = c.c
	m, err := cpu.NewWithDesign(p.p, cfg, "T4")
	if err != nil {
		return err
	}
	return m.FastForward()
}

// ---------------------------------------------------------------------
// engine and harness: grid passes

// simCounts sums the simulated statistics of the results a workload
// obtained. Simulated counts are exact: two runs of one commit with
// one seed must agree on every field.
type simCounts struct {
	Results           uint64
	Cycles            uint64
	Committed         uint64
	FastForwarded     uint64
	TLBLookups        uint64
	TLBMisses         uint64
	TLBWalks          uint64
	ShieldHits        uint64
	Piggybacks        uint64
	NoPortRetries     uint64
	FetchStallCycles  uint64
	DispatchTLBStalls uint64
	DispatchROBFull   uint64
	DispatchLSQFull   uint64
}

// add folds r into the sums.
func (c *simCounts) add(r simResult) {
	c.Results++
	c.Cycles += uint64(r.Cycles)
	c.Committed += r.Instructions
	c.FastForwarded += r.FastForwarded
	c.TLBLookups += r.TLBLookups
	c.TLBMisses += r.TLBMisses
	c.TLBWalks += r.TLBWalks
	c.ShieldHits += r.ShieldHits
	c.Piggybacks += r.Piggybacks
	c.NoPortRetries += r.NoPortRetries
	c.FetchStallCycles += uint64(r.FetchStallCycles)
	c.DispatchTLBStalls += uint64(r.DispatchTLBStalls)
	c.DispatchROBFull += uint64(r.DispatchROBFull)
	c.DispatchLSQFull += uint64(r.DispatchLSQFull)
}

// insts is the simulated work behind the results: committed plus
// fast-forwarded instructions.
func (c *simCounts) insts() uint64 { return c.Committed + c.FastForwarded }

// cacheStats mirrors engine.CacheStats.
type cacheStats struct {
	BuildHits, BuildMisses uint64
	SpecHits, SpecMisses   uint64
	CkptHits, CkptMisses   uint64
}

func (c *cacheStats) add(o cacheStats) {
	c.BuildHits += o.BuildHits
	c.BuildMisses += o.BuildMisses
	c.SpecHits += o.SpecHits
	c.SpecMisses += o.SpecMisses
	c.CkptHits += o.CkptHits
	c.CkptMisses += o.CkptMisses
}

// minus returns the counters accumulated since o was read.
func (c cacheStats) minus(o cacheStats) cacheStats {
	return cacheStats{
		c.BuildHits - o.BuildHits, c.BuildMisses - o.BuildMisses,
		c.SpecHits - o.SpecHits, c.SpecMisses - o.SpecMisses,
		c.CkptHits - o.CkptHits, c.CkptMisses - o.CkptMisses,
	}
}

func engineCacheStats(e *engine.Engine) cacheStats {
	cs := e.CacheStats()
	return cacheStats{cs.BuildHits, cs.BuildMisses, cs.SpecHits, cs.SpecMisses, cs.CkptHits, cs.CkptMisses}
}

// runObserver receives one grid run's completion: the time it ended
// and its wall time (the engine's Progress callback).
type runObserver func(workload, design string, end time.Time, wall time.Duration)

func (o runObserver) progress() func(engine.Progress) {
	if o == nil {
		return nil
	}
	return func(p engine.Progress) {
		o(p.Result.Spec.Workload, p.Result.Spec.Design, time.Now(), p.Result.Wall)
	}
}

// gridPass is one pass over a grid on a fresh engine.
type gridPass struct {
	Runs   int
	Bad    []string // runs that failed a check, described
	Digest string   // SHA-256 over the canonical artifacts in spec order
	Counts simCounts
	Cache  cacheStats
	// RunWall sums the runs' own wall times; over parallelism × the
	// pass's wall time it is the share of the pass the workers were
	// busy.
	RunWall     time.Duration
	Parallelism int

	// fig is set by figure5Pass.
	fig     *harness.FigureResult
	eng     *engine.Engine
	results []*engine.RunResult
}

// collect folds results (in spec order) into the pass: the digest, the
// simulated sums, and the per-run checks — no error, and committed +
// fast-forwarded equal to the workload's functional count.
func (g *gridPass) collect(results []*engine.RunResult, want map[string]uint64) {
	g.results = results
	g.Parallelism = runtime.GOMAXPROCS(0)
	g.Cache = engineCacheStats(g.eng)
	h := sha256.New()
	for _, r := range results {
		g.Runs++
		g.RunWall += r.Wall
		if r.Err != nil {
			g.Bad = append(g.Bad, fmt.Sprintf("%s: %v", r.Spec, r.Err))
			continue
		}
		wire := engine.Wire(*r)
		h.Write(engine.Artifact(wire))
		g.Counts.add(wire)
		if got := wire.Instructions + wire.FastForwarded; got != want[r.Spec.Workload] {
			g.Bad = append(g.Bad, fmt.Sprintf("%s: %d instructions, functional count %d", r.Spec, got, want[r.Spec.Workload]))
		}
	}
	g.Digest = hex.EncodeToString(h.Sum(nil))
}

// figure5Pass regenerates the paper's Figure 5 — 13 designs × 10
// workloads from reset — on a fresh engine at engine parallelism
// GOMAXPROCS.
func figure5Pass(ctx context.Context, scale string, seed uint64, want map[string]uint64, obs runObserver) (*gridPass, error) {
	sc, err := engine.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	eng := engine.New()
	f, err := harness.Figure5(ctx, harness.Options{Scale: sc, Seed: seed, Engine: eng, Progress: obs.progress()})
	if err != nil {
		return nil, err
	}
	g := &gridPass{fig: f, eng: eng}
	var results []*engine.RunResult
	for _, d := range f.Designs {
		for _, w := range f.Workloads {
			results = append(results, f.Runs[d][w])
		}
	}
	g.collect(results, want)
	return g, nil
}

// normalizedAvg is the figure's headline number for design: run-time
// weighted IPC normalized to T4.
func (g *gridPass) normalizedAvg(design string) float64 { return g.fig.NormalizedAvg(design) }

// renderFigure renders the pass's figure as the text report and
// returns its size.
func (g *gridPass) renderFigure() int {
	var b bytes.Buffer
	harness.RenderFigure(&b, g.fig)
	return b.Len()
}

// ffwdDesigns are the designs of the fast-forwarded quick look: the
// baseline, a multi-level design and a piggybacked one.
var ffwdDesigns = []string{"T4", "M8", "PB2"}

// ffwdPlan is the ffwd-99 grid: ten workloads × ffwdDesigns at full
// scale, each fast-forwarding 99 % of its functional count, so the 30
// runs share ten checkpoints.
type ffwdPlan struct {
	specs []engine.RunSpec
	want  map[string]uint64
}

func newFFwdPlan(seed uint64, counts map[string]uint64) *ffwdPlan {
	p := &ffwdPlan{want: counts}
	for _, w := range workloadNames() {
		for _, d := range ffwdDesigns {
			p.specs = append(p.specs, engine.RunSpec{
				Workload: w, Design: d, Budget: prog.Budget32, Scale: workload.ScaleFull,
				PageSize: pageSize, Seed: seed, FastForward: counts[w] * 99 / 100,
			})
		}
	}
	return p
}

// pass runs the plan on a fresh engine: program builds, checkpoint
// builds, restores and the 1 % measured windows.
func (p *ffwdPlan) pass(ctx context.Context, obs runObserver) (*gridPass, error) {
	eng := engine.New()
	res, err := eng.RunAll(ctx, p.specs, 0, obs.progress())
	if err != nil {
		return nil, err
	}
	g := &gridPass{eng: eng}
	results := make([]*engine.RunResult, len(res))
	for i := range res {
		results[i] = &res[i]
	}
	g.collect(results, p.want)
	return g, nil
}

// memoRerun runs the pass's specs again on the pass's own engine:
// every spec is served from the RunSpec memo.
func (g *gridPass) memoRerun(ctx context.Context) error {
	specs := make([]engine.RunSpec, len(g.results))
	for i, r := range g.results {
		specs[i] = r.Spec
	}
	res, err := g.eng.RunAll(ctx, specs, 0, nil)
	if err != nil {
		return err
	}
	for i := range res {
		if !res[i].Cached {
			return fmt.Errorf("%s: re-simulated on a warm engine", res[i].Spec)
		}
	}
	return nil
}

// anArtifact returns the canonical bytes of the pass's first result,
// a realistic payload for the store rungs.
func (g *gridPass) anArtifact() []byte { return engine.Artifact(engine.Wire(*g.results[0])) }

// engineRunner returns a function that executes one test-scale spec
// through Engine.Run on a fresh engine whose program is already built
// — so against cpuRun on the same program it isolates what the engine
// adds around a simulation.
func engineRunner(ctx context.Context, workloadName, design string, seed uint64) (func() error, error) {
	spec := engine.RunSpec{
		Workload: workloadName, Design: design, Budget: prog.Budget32,
		Scale: workload.ScaleTest, PageSize: pageSize, Seed: seed,
	}
	eng := engine.New()
	if err := eng.PrewarmBuilds(ctx, []engine.RunSpec{spec}); err != nil {
		return nil, err
	}
	return func() error { return eng.Run(ctx, spec).Err }, nil
}

// ---------------------------------------------------------------------
// store

type storeStats struct {
	MemHits, DiskHits, Misses, Puts, MemEvictions, Corrupt uint64
}

// minus returns the counters accumulated since o was read.
func (s storeStats) minus(o storeStats) storeStats {
	return storeStats{
		s.MemHits - o.MemHits, s.DiskHits - o.DiskHits, s.Misses - o.Misses,
		s.Puts - o.Puts, s.MemEvictions - o.MemEvictions, s.Corrupt - o.Corrupt,
	}
}

func readStoreStats(s *store.Store) storeStats {
	st := s.Stats()
	return storeStats{st.MemHits, st.DiskHits, st.Misses, st.Puts, st.MemEvictions, st.Corrupt}
}

// artifactStore is a result store outside any daemon, for the ladder.
type artifactStore struct{ s *store.Store }

// newArtifactStore opens a store with the daemons' default memory
// budget; dir "" keeps it memory-only.
func newArtifactStore(dir string) (artifactStore, error) {
	s, err := store.New(store.Config{Dir: dir, MemBytes: 64 << 20})
	return artifactStore{s}, err
}

func (a artifactStore) put(key string, data []byte) error {
	_, err := a.s.Put("default", key, data)
	return err
}

func (a artifactStore) get(key string) bool {
	_, _, ok := a.s.Get(key)
	return ok
}

func (a artifactStore) stats() storeStats { return readStoreStats(a.s) }

// ---------------------------------------------------------------------
// transport and fleet: the daemons, mounted in-process

// daemonLogger is the logger the binaries build by default (-log-level
// info, -log-format text), writing to nowhere: records are formatted,
// as they are in a deployed daemon, and not printed.
func daemonLogger() (*slog.Logger, error) {
	return (&obs.Flags{LogLevel: "info", Format: "text"}).NewLogger(io.Discard)
}

// listen serves h on a loopback port the kernel picks.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// hbatd is one in-process sweep daemon, mounted as cmd/hbatd mounts
// it with its default flags: a fresh engine, a 64 MiB memory-only
// store, four workers, /v1 beside the observability endpoints on one
// listener.
type hbatd struct {
	base string
	eng  *engine.Engine
	st   *store.Store
	svc  *transport.Service
	srv  *http.Server
}

func mountHbatd() (*hbatd, error) {
	logger, err := daemonLogger()
	if err != nil {
		return nil, err
	}
	eng := engine.New()
	eng.SetLogger(logger)
	st, err := store.New(store.Config{MemBytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	svc, err := transport.New(transport.Config{Engine: eng, Store: st, Logger: logger})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", svc.Handler())
	mux.Handle("/", obs.NewHandler(obs.Config{Engine: eng, Logger: logger, Extra: svc.MetricsFamilies}))
	d := &hbatd{eng: eng, st: st, svc: svc}
	if d.srv, d.base, err = listen(mux); err != nil {
		return nil, err
	}
	return d, nil
}

// submitHandlerProbe drives the daemon's /v1 handler with one job
// submission through an httptest recorder — no socket — and reports
// whether it was accepted.
func (d *hbatd) submitHandlerProbe(req jobRequest) bool {
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, api.PathJobs, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	d.svc.Handler().ServeHTTP(rec, r)
	return rec.Code == http.StatusAccepted
}

// close drains the service, then drops the listener and every
// connection at once: tear-down is not measured, and a graceful
// http.Server.Shutdown waits seconds for connections a client dialed
// and never used.
func (d *hbatd) close(ctx context.Context) {
	d.svc.Shutdown(ctx)
	d.srv.Close()
}

// fabric is what a serving workload runs against: a daemon alone, or a
// coordinator over worker daemons. front is the store tier the client
// reads through.
type fabric struct {
	base    string
	workers []*hbatd
	front   *store.Store
	coord   *fleet.Coordinator
	srv     *http.Server
}

func mountDirect() (*fabric, error) {
	d, err := mountHbatd()
	if err != nil {
		return nil, err
	}
	return &fabric{base: d.base, workers: []*hbatd{d}, front: d.st}, nil
}

// mountFleet mounts n worker daemons and, over them, a coordinator as
// cmd/hbatc mounts it with its default flags, and waits until the
// coordinator reports every worker up.
func mountFleet(ctx context.Context, n int) (*fabric, error) {
	f := &fabric{}
	var addrs []string
	for i := 0; i < n; i++ {
		d, err := mountHbatd()
		if err != nil {
			f.close(ctx)
			return nil, err
		}
		f.workers = append(f.workers, d)
		addrs = append(addrs, d.base)
	}
	logger, err := daemonLogger()
	if err != nil {
		return nil, err
	}
	if f.front, err = store.New(store.Config{MemBytes: 64 << 20}); err != nil {
		return nil, err
	}
	f.coord, err = fleet.New(fleet.Config{
		Workers: addrs, Store: f.front,
		ProbeEvery: time.Second, ProbeTimeout: 500 * time.Millisecond, DownAfter: 3,
		RequestTimeout: 10 * time.Second, BatchTimeout: 2 * time.Minute,
		RetryMax: 3, RetryBackoff: 50 * time.Millisecond,
		Logger: logger,
	})
	if err != nil {
		f.close(ctx)
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", f.coord.Handler())
	mux.Handle("/", obs.NewHandler(obs.Config{Ready: f.coord.Accepting, Extra: f.coord.MetricsFamilies, Logger: logger}))
	if f.srv, f.base, err = listen(mux); err != nil {
		f.close(ctx)
		return nil, err
	}
	for {
		up := 0
		for _, w := range f.coord.WorkersSnapshot() {
			if w.State == api.WorkerUp {
				up++
			}
		}
		if up == n {
			return f, nil
		}
		select {
		case <-ctx.Done():
			f.close(ctx)
			return nil, fmt.Errorf("fleet: %d of %d workers up: %w", up, n, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (f *fabric) close(ctx context.Context) {
	if f.coord != nil {
		f.coord.Shutdown(ctx)
	}
	if f.srv != nil {
		f.srv.Close()
	}
	for _, w := range f.workers {
		w.close(ctx)
	}
	// The coordinator reaches its workers through http.DefaultClient.
	http.DefaultClient.CloseIdleConnections()
}

// engineStats sums the worker engines' cache counters.
func (f *fabric) engineStats() cacheStats {
	var cs cacheStats
	for _, w := range f.workers {
		cs.add(engineCacheStats(w.eng))
	}
	return cs
}

// storeStats reads the front store tier's counters.
func (f *fabric) storeStats() storeStats { return readStoreStats(f.front) }

// ---------------------------------------------------------------------
// api: requests, the client, and the local oracle

const servingScale = "test"

// prefillRequest is the 130-spec test-scale grid as one job.
func prefillRequest(seed uint64) jobRequest {
	return jobRequest{Grid: &api.Grid{Template: simTemplate(seed)}}
}

func simTemplate(seed uint64) api.SimOptions {
	return api.SimOptions{CommonOptions: api.CommonOptions{Scale: servingScale, Seed: seed}}
}

// hitRequest is a one-spec job naming cell (workload, design) of the
// prefilled grid.
func hitRequest(workloadName, design string, seed uint64) jobRequest {
	o := simTemplate(seed)
	o.Workload, o.Design = workloadName, design
	return jobRequest{Specs: []api.SimOptions{o}}
}

// coldRequest is a design sweep of one workload — all 13 designs —
// under a simulation seed no earlier job used, so every spec key is
// new to the fabric.
func coldRequest(workloadName string, simSeed uint64) jobRequest {
	return jobRequest{Grid: &api.Grid{Workloads: []string{workloadName}, Template: simTemplate(simSeed)}}
}

// specOutcome is one spec's final status inside a finished job.
type specOutcome struct {
	Key, SHA256, Worker, Error string
	Done, StoreHit             bool
	WallMs                     float64
	Attempts                   int
}

// fabricClient is the client path hbat.Dial uses — api.Client's
// Submit, Wait and Result — over one connection. rt, when non-nil,
// observes every round trip (the traced run's poll spans).
type fabricClient struct{ c *api.Client }

func newFabricClient(base string, rt func(http.RoundTripper) http.RoundTripper) *fabricClient {
	var tr http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if rt != nil {
		tr = rt(tr)
	}
	c := api.NewClient(base)
	c.HTTP = &http.Client{Transport: tr}
	return &fabricClient{c}
}

func (f *fabricClient) submit(ctx context.Context, req jobRequest) (id string, keys []string, err error) {
	acc, err := f.c.Submit(ctx, req)
	return acc.ID, acc.SpecKeys, err
}

// wait blocks in api.Client.Wait until the job leaves the queued and
// running states.
func (f *fabricClient) wait(ctx context.Context, id string) ([]specOutcome, error) {
	st, err := f.c.Wait(ctx, id)
	if err != nil {
		return nil, err
	}
	out := make([]specOutcome, len(st.Specs))
	for i, s := range st.Specs {
		out[i] = specOutcome{
			Key: s.SpecKey, SHA256: s.SHA256, Worker: s.Worker, Error: s.Error,
			Done: s.State == api.StateDone, StoreHit: s.StoreHit,
			WallMs: s.WallMs, Attempts: s.Attempts,
		}
	}
	return out, nil
}

func (f *fabricClient) result(ctx context.Context, key string) (data []byte, etag string, err error) {
	return f.c.Result(ctx, key)
}

func (f *fabricClient) closeIdle() { f.c.HTTP.CloseIdleConnections() }

func decodeArtifact(data []byte) (simResult, error) {
	var r simResult
	err := json.Unmarshal(data, &r)
	return r, err
}

func artifactSHA256(data []byte) string { return engine.ArtifactSHA256(data) }

// localArtifacts is the oracle: it expands and normalizes reqs exactly
// as a daemon does, simulates every distinct spec on a private engine,
// and returns the canonical artifact bytes by spec key.
func localArtifacts(ctx context.Context, reqs []jobRequest) (map[string][]byte, error) {
	var specs []engine.RunSpec
	seen := make(map[string]bool)
	for i := range reqs {
		runs, sts, err := transport.NormalizeSpecs(transport.ExpandRequest(&reqs[i]))
		if err != nil {
			return nil, err
		}
		for j, r := range runs {
			if !seen[sts[j].SpecKey] {
				seen[sts[j].SpecKey] = true
				specs = append(specs, r)
			}
		}
	}
	res, err := engine.New().RunAll(ctx, specs, 0, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(res))
	for i := range res {
		if res[i].Err != nil {
			return nil, res[i].Err
		}
		out[specs[i].Hash()] = engine.Artifact(engine.Wire(res[i]))
	}
	return out, nil
}
