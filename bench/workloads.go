package main

import (
	"context"
	"fmt"
	"time"
)

// workloadDef is one named workload. setUp does everything that
// precedes the timed region — it is what setup_s times — and returns
// an instance ready to be measured. It can be called any number of
// times in one process; each call builds its own state.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// grid sets a grid workload up; a serving workload has none and is
	// described by fleet (through the coordinator, or straight to one
	// hbatd) and cold (never-seen sweeps, or prefilled keys).
	grid        func(ctx context.Context, seed uint64) (instance, error)
	fleet, cold bool
}

func (w workloadDef) setUp(ctx context.Context, seed uint64) (instance, error) {
	if w.grid != nil {
		return w.grid(ctx, seed)
	}
	return setUpServing(ctx, seed, w.fleet, w.cold)
}

// layer is the module a serving workload's client-side metrics are
// filed under.
func (w workloadDef) layer() string {
	if w.fleet {
		return "fleet"
	}
	return "transport"
}

// instance is one set-up workload.
type instance interface {
	// run measures for about d: it keeps starting operations until d
	// has passed and lets the last one finish. With a tracer it
	// records benchmark-side spans around every call into a layer.
	run(ctx context.Context, d time.Duration, tr *tracer) (*runStats, error)
	// verify runs the checks too costly for the timed region and
	// returns what they found wrong.
	verify(ctx context.Context) ([]string, error)
	close(ctx context.Context)
}

// runStats is what one timed region measured.
type runStats struct {
	// lat holds one latency per operation: a grid pass, or a job from
	// submit to the last verified result byte.
	lat latencies
	// opsPerS is operations completed per second of timed region.
	opsPerS float64
	// insts counts the simulated instructions (committed + fast-
	// forwarded) behind the results obtained, and seconds the time
	// they were obtained in.
	insts   uint64
	seconds float64
	// bad describes every failed check.
	bad []string

	// digest and counts identify the simulated outcome; both must be
	// identical between two runs of one commit with one seed.
	digest string
	counts simCounts

	engine   cacheStats // engine cache counters over the timed region
	store    storeStats // front store tier counters over the timed region
	busyFrac float64    // grid: share of parallelism × pass time spent inside runs

	serving servingStats
}

// servingStats is what the job statuses of a serving run reported.
type servingStats struct {
	specs, storeHits  int
	specWallMs        []float64
	attempts, retried int
	byWorker          map[string]int
}

var workloadDefs = []workloadDef{
	{
		Name: "grid-cold",
		Why:  "Figure 5 from reset on a fresh engine (13 designs x 10 workloads): the researcher's wait; nearly all host time is cpu+tlb+cache+bpred, so a faster cycle core shows here and not in the hit workloads",
		grid: setUpGridCold,
	},
	{
		Name: "ffwd-99",
		Why:  "30 full-scale runs fast-forwarding 99% through 10 shared checkpoints: workload build, ckpt.Build, sblock and restore dominate and the cycle core idles; a functional-engine gain shows here only",
		grid: setUpFFwd99,
	},
	{
		Name: "serve-hit",
		Why:  "one-spec jobs over 130 prefilled keys through an in-process hbatd: transport + store reads + api client alone; the engine sees no new spec, so simulator speed-ups predict no change",
	},
	{
		Name: "serve-cold",
		Why:  "13-design sweeps under never-seen seeds through hbatd: queue, engine, cpu and 13 store writes per job; the store and transport used the other way from serve-hit",
		cold: true,
	},
	{
		Name:  "fleet-hit",
		Why:   "serve-hit's jobs through an in-process hbatc over 2 hbatd workers: coordinator overhead alone; with serve-hit it gives the coordinator-over-direct ratio",
		fleet: true,
	},
	{
		Name:  "fleet-cold",
		Why:   "serve-cold's sweeps through the coordinator: rendezvous placement on the affinity key, dispatch, worker poll, verified fetch and store fill",
		fleet: true, cold: true,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// ---------------------------------------------------------------------
// grid workloads

// gridScale is grid-cold's workload scale. One small-scale pass takes
// ten seconds on two cores, which leaves a run no second pass to take
// a median over; the test-scale grid runs the same 130 specs in a
// little over a second.
const gridScale = "test"

// gridInstance repeats passes over one grid, each on a fresh engine.
type gridInstance struct {
	pass func(ctx context.Context, obs runObserver) (*gridPass, error)
}

func setUpGridCold(ctx context.Context, seed uint64) (instance, error) {
	want, err := functionalCounts(gridScale)
	if err != nil {
		return nil, err
	}
	g := &gridInstance{pass: func(ctx context.Context, obs runObserver) (*gridPass, error) {
		return figure5Pass(ctx, gridScale, seed, want, obs)
	}}
	// The untimed warm-up pass: heap grown, pages faulted in.
	_, err = g.pass(ctx, nil)
	return g, err
}

func setUpFFwd99(ctx context.Context, seed uint64) (instance, error) {
	counts, err := functionalCounts("full")
	if err != nil {
		return nil, err
	}
	plan := newFFwdPlan(seed, counts)
	g := &gridInstance{pass: plan.pass}
	_, err = g.pass(ctx, nil)
	return g, err
}

func (g *gridInstance) run(ctx context.Context, d time.Duration, tr *tracer) (*runStats, error) {
	st := &runStats{}
	var busy, wall time.Duration
	for begin := time.Now(); time.Since(begin) < d || st.lat.attempted() == 0; {
		op := tr.newOp()
		var obs runObserver
		ps := tr.start("pass", -1, op)
		if tr != nil {
			obs = func(workload, design string, end time.Time, w time.Duration) {
				tr.add("run", ps, op, end.Add(-w), end)
			}
		}
		t0 := time.Now()
		p, err := g.pass(ctx, obs)
		dt := time.Since(t0)
		tr.end(ps)
		if err != nil {
			return nil, err
		}
		wall += dt
		busy += p.RunWall
		st.insts += p.Counts.insts()
		st.bad = append(st.bad, p.Bad...)
		switch {
		case len(p.Bad) > 0:
			st.lat.fail()
		case st.digest != "" && p.Digest != st.digest:
			st.bad = append(st.bad, fmt.Sprintf("pass %d: sim_digest %s differs from the first pass's %s", st.lat.attempted()+1, p.Digest, st.digest))
			st.lat.fail()
		default:
			st.lat.succeed(float64(dt) / float64(time.Millisecond))
		}
		if st.digest == "" {
			st.digest, st.counts = p.Digest, p.Counts
		}
		st.engine = p.Cache
		st.busyFrac = float64(busy) / (float64(p.Parallelism) * float64(wall))
	}
	st.seconds = wall.Seconds()
	st.opsPerS = float64(len(st.lat.ok)) / st.seconds
	return st, nil
}

func (g *gridInstance) verify(context.Context) ([]string, error) { return nil, nil }
func (g *gridInstance) close(context.Context)                    {}
