package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// The layer ladder: one micro-measurement per layer, the same in every
// traced run whatever the workload, each made from outside through the
// calls in layers.go. Every rung records a span, and every timing is a
// median over the rung's repetitions.

// ladder carries one traced run's rungs and their results.
type ladder struct {
	ctx  context.Context
	tr   *tracer
	seed uint64
	set  metricSet
	// full are the ten full-scale programs and fullInsts their
	// functional instruction counts, shared by two rungs.
	full      []program
	fullInsts []uint64
	// artifact is one canonical result artifact, the store rungs'
	// payload.
	artifact []byte
}

// timed runs f once under a span named name and returns its seconds.
func (l *ladder) timed(name string, f func() error) (float64, error) {
	op := l.tr.newOp()
	id := l.tr.start(name, -1, op)
	t0 := time.Now()
	err := f()
	dt := time.Since(t0)
	l.tr.end(id)
	return dt.Seconds(), err
}

// medianOf times f reps times and returns the median seconds.
func (l *ladder) medianOf(name string, reps int, f func() error) (float64, error) {
	secs := make([]float64, reps)
	for i := range secs {
		var err error
		if secs[i], err = l.timed(name, f); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(secs), nil
}

// mallocs counts the heap allocations f makes.
func mallocs(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// runLadder measures every rung into set. tmp is a scratch directory
// for the store's disk layer.
func runLadder(ctx context.Context, tr *tracer, seed uint64, tmp string, set metricSet) error {
	l := &ladder{ctx: ctx, tr: tr, seed: seed, set: set}
	for _, rung := range []func() error{
		l.replays, l.cycleCore, l.functional, l.checkpoints, l.engineAndHarness,
		func() error { return l.stores(tmp) }, l.handler,
	} {
		if err := rung(); err != nil {
			return err
		}
	}
	return nil
}

// replays: tlb, cache and bpred on the recorded compress + espresso
// streams (test scale) — the low-locality and the high-ILP extremes.
func (l *ladder) replays() error {
	var streams []refStream
	refs := 0
	for _, name := range []string{"compress", "espresso"} {
		p, err := buildProgram(name, "test")
		if err != nil {
			return err
		}
		s, err := recordStream(p)
		if err != nil {
			return err
		}
		streams = append(streams, s)
		refs += len(s.refs)
	}
	var allocs uint64
	for _, d := range designNames() {
		replay, err := tlbReplayer(d, streams, l.seed)
		if err != nil {
			return err
		}
		once := func() error { _, err := replay(); return err }
		if err := once(); err != nil { // warm the device
			return err
		}
		sec, err := l.medianOf("tlb.lookup."+metricSafe(d), 5, once)
		if err != nil {
			return err
		}
		l.set["tlb.lookup_ns."+metricSafe(d)] = sec * 1e9 / float64(refs)
		n, err := mallocs(once)
		if err != nil {
			return err
		}
		allocs += n
	}
	l.set["tlb.lookup_allocs"] = float64(allocs)

	creplay := cacheReplayer(streams)
	creplay()
	sec, _ := l.medianOf("cache.access", 5, func() error { creplay(); return nil })
	l.set["cache.access_ns"] = sec * 1e9 / float64(refs)

	breplay := bpredReplayer(streams)
	branches := breplay()
	sec, _ = l.medianOf("bpred.predict_resolve", 5, func() error { breplay(); return nil })
	l.set["bpred.predict_resolve_ns"] = sec * 1e9 / float64(branches)
	return nil
}

// cycleCore: the ten workloads at small scale on T4, one machine at a
// time on one goroutine.
func (l *ladder) cycleCore() error {
	var progs []program
	sec, err := l.medianOf("workload.build", 5, func() (err error) {
		progs, err = buildPrograms("small")
		return err
	})
	if err != nil {
		return err
	}
	l.set["workload.build_ms"] = sec * 1e3

	var news []float64
	var wall float64
	var cycles int64
	for _, p := range progs {
		var m cpuMachine
		sec, err := l.timed("cpu.new", func() (err error) {
			m, err = newCPU(p, "T4", l.seed)
			return err
		})
		if err != nil {
			return err
		}
		news = append(news, sec*1e6)
		var insts uint64
		sec, err = l.timed("cpu.run."+p.name, func() (err error) {
			var c int64
			insts, c, err = m.run()
			cycles += c
			return err
		})
		if err != nil {
			return err
		}
		wall += sec
		l.set["cpu.minst_per_s."+p.name] = float64(insts) / sec / 1e6
	}
	l.set["cpu.new_us"] = median(news)
	l.set["cpu.host_ns_per_cycle"] = wall * 1e9 / float64(cycles)

	p, err := buildProgram("compress", "test")
	if err != nil {
		return err
	}
	m, err := newCPU(p, "T4", l.seed)
	if err != nil {
		return err
	}
	n, err := mallocs(func() error { _, _, err := m.run(); return err })
	l.set["cpu.run_allocs"] = float64(n)
	return err
}

// functional: the interpreter and the superblock engine over the ten
// full-scale programs.
func (l *ladder) functional() error {
	progs, err := buildPrograms("full")
	if err != nil {
		return err
	}
	l.full = progs
	var insts uint64
	sec, err := l.timed("emu.run", func() error {
		for _, p := range progs {
			n, err := emuRun(p)
			if err != nil {
				return err
			}
			l.fullInsts = append(l.fullInsts, n)
			insts += n
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set["emu.minst_per_s"] = float64(insts) / sec / 1e6

	var sum sblockStats
	insts = 0
	sec, err = l.timed("sblock.run", func() error {
		for _, p := range progs {
			n, st, err := sblockRun(p)
			if err != nil {
				return err
			}
			insts += n
			sum.BlocksBuilt += st.BlocksBuilt
			sum.InterpSteps += st.InterpSteps
			sum.SlowFills += st.SlowFills
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set["sblock.minst_per_s"] = float64(insts) / sec / 1e6
	l.set["sblock.blocks_built"] = float64(sum.BlocksBuilt)
	l.set["sblock.interp_steps"] = float64(sum.InterpSteps)
	l.set["sblock.slow_fills"] = float64(sum.SlowFills)
	return nil
}

// checkpoints: build, encode, decode and restore the ten full-scale
// 99 % checkpoints ffwd-99 shares; every figure is the sum over the ten.
func (l *ladder) checkpoints() error {
	var build, encode, decode, restore float64
	var ffwd uint64
	var size int
	for i, p := range l.full {
		n := l.fullInsts[i] * 99 / 100
		ffwd += n
		var c checkpoint
		sec, err := l.timed("ckpt.build", func() (err error) {
			c, err = ckptBuild(l.ctx, p, n)
			return err
		})
		if err != nil {
			return err
		}
		build += sec
		var data []byte
		sec, _ = l.timed("ckpt.encode", func() error { data = c.encode(); return nil })
		encode += sec
		size += len(data)
		if sec, err = l.timed("ckpt.decode", func() error { return ckptDecode(data) }); err != nil {
			return err
		}
		decode += sec
		if sec, err = l.timed("cpu.restore", func() error { return cpuRestore(p, c) }); err != nil {
			return err
		}
		restore += sec
	}
	l.set["ckpt.build_ms"] = build * 1e3
	l.set["ckpt.build_minst_per_s"] = float64(ffwd) / build / 1e6
	l.set["ckpt.encode_ms"] = encode * 1e3
	l.set["ckpt.decode_ms"] = decode * 1e3
	l.set["ckpt.bytes"] = float64(size)
	l.set["cpu.restore_ms"] = restore * 1e3
	return nil
}

// engineAndHarness: a memo-warm pass, what Engine.Run adds around a
// bare simulation, rendering Figure 5, and the figure's distance from
// the paper's.
func (l *ladder) engineAndHarness() error {
	want, err := functionalCounts(gridScale)
	if err != nil {
		return err
	}
	var pass *gridPass
	if _, err := l.timed("engine.cold_pass", func() (err error) {
		pass, err = figure5Pass(l.ctx, gridScale, l.seed, want, nil)
		return err
	}); err != nil {
		return err
	}
	sec, err := l.medianOf("engine.memo_pass", 5, func() error { return pass.memoRerun(l.ctx) })
	if err != nil {
		return err
	}
	l.set["engine.memo_hit_us"] = sec * 1e6 / float64(pass.Runs)
	l.artifact = pass.anArtifact()

	sec, _ = l.medianOf("harness.render_fig5", 5, func() error { pass.renderFigure(); return nil })
	l.set["harness.render_fig5_us"] = sec * 1e6
	l.set["harness.fig5_norm_ipc_mae"] = fig5MAE(pass)

	// Engine.Run against the bare machine on the same program, spec by
	// spec. The difference of two ~10 ms timings is noisy, so each side
	// is the fastest of three alternating runs (a fresh engine each
	// time: a second Run on one engine is a memo hit) and the metric
	// the median over the ten workloads.
	var over []float64
	for _, name := range workloadNames() {
		p, err := buildProgram(name, gridScale)
		if err != nil {
			return err
		}
		viaEngine, bare := math.Inf(1), math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			run, err := engineRunner(l.ctx, name, "T4", l.seed)
			if err != nil {
				return err
			}
			sec, err := l.timed("engine.run", run)
			if err != nil {
				return err
			}
			viaEngine = min(viaEngine, sec)
			sec, err = l.timed("engine.run_bare", func() error {
				m, err := newCPU(p, "T4", l.seed)
				if err != nil {
					return err
				}
				_, _, err = m.run()
				return err
			})
			if err != nil {
				return err
			}
			bare = min(bare, sec)
		}
		over = append(over, (viaEngine-bare)*1e6)
	}
	l.set["engine.run_overhead_us"] = median(over)
	return nil
}

// stores: put and get against the memory layer, then against a disk
// layer in tmp — a get there is a hash-verified load, because it goes
// through a second store that has only indexed the directory.
func (l *ladder) stores(tmp string) error {
	payload := l.artifact
	key := func(i int) string { return fmt.Sprintf("%012x", i) }
	rung := func(name string, n int, s artifactStore, put bool) (float64, error) {
		sec, err := l.timed(name, func() error {
			for i := 0; i < n; i++ {
				if put {
					if err := s.put(key(i), payload); err != nil {
						return err
					}
				} else if !s.get(key(i)) {
					return fmt.Errorf("%s: key %d missing", name, i)
				}
			}
			return nil
		})
		return sec * 1e6 / float64(n), err
	}

	mem, err := newArtifactStore("")
	if err != nil {
		return err
	}
	const memN, diskN = 5000, 200
	if l.set["store.put_us.mem"], err = rung("store.put.mem", memN, mem, true); err != nil {
		return err
	}
	if l.set["store.get_us.mem"], err = rung("store.get.mem", memN, mem, false); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := newArtifactStore(dir)
	if err != nil {
		return err
	}
	if l.set["store.put_us.disk"], err = rung("store.put.disk", diskN, disk, true); err != nil {
		return err
	}
	reopened, err := newArtifactStore(dir)
	if err != nil {
		return err
	}
	if l.set["store.get_us.disk"], err = rung("store.get.disk", diskN, reopened, false); err != nil {
		return err
	}
	if st := reopened.stats(); st.DiskHits != diskN {
		return fmt.Errorf("store.get.disk: %d disk hits of %d gets", st.DiskHits, diskN)
	}
	return nil
}

// handler: one-spec submissions driven straight into the daemon's /v1
// handler, no socket.
func (l *ladder) handler() error {
	d, err := mountHbatd()
	if err != nil {
		return err
	}
	defer d.close(l.ctx)
	req := hitRequest("doduc", "T4", l.seed)
	sec, err := l.medianOf("transport.handler_submit", 200, func() error {
		if !d.submitHandlerProbe(req) {
			return fmt.Errorf("submission refused")
		}
		return nil
	})
	l.set["transport.handler_submit_us"] = sec * 1e6
	return err
}
