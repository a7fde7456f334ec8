# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test check ci bench profile-core profile-ffwd profile-fleet experiments report serve-demo cover loc clean

all: build test

build:
	go build ./...

test:
	go test ./...

# Vet, a gofmt check and the race-enabled test suite (which includes
# the lockstep differential, cross-design equivalence, golden-file and
# concurrent-/metrics-scrape tests, and the tests that drive the built
# binaries as processes). Golden fixtures are regenerated with
# `go test ./internal/harness/ ./internal/report/ -run TestGolden -update`.
check:
	go vet ./...
	test -z "$$(gofmt -l .)" || { gofmt -l .; echo 'gofmt: files need formatting'; exit 1; }
	go test -race ./...

# The whole gate, what CI runs: check, the worker pool's shard index on
# a 32-bit platform, one iteration of every benchmark, the internal/ckpt
# coverage floor (85 %), every fuzz target for 10 s (found by
# `go test -list`), and the benchmark's machine-independent floors.
ci: check
	GOARCH=386 go test ./internal/transport/ -run TestShardInRange
	@$(MAKE) --no-print-directory bench
	go test -race -coverprofile=coverage.out -coverpkg=./internal/ckpt/... ./internal/ckpt/
	go tool cover -func=coverage.out | awk '/^total:/ { print "internal/ckpt coverage " $$3; if ($$3 + 0 < 85) { print "below the 85% floor"; exit 1 } }'
	go test -list '^Fuzz' ./... | awk '/^Fuzz/ { f = f " " $$1 } /^ok / { if (f != "") print $$2 f; f = "" }' | \
	while read pkg targets; do \
		for f in $$targets; do go test $$pkg -run '^$$' -fuzz "^$$f$$" -fuzztime 10s || exit 1; done; \
	done
	go run ./scripts/floors

# One iteration of every Benchmark* function (tables, figures,
# ablations): a smoke, not a measurement. How fast the simulator is, per
# layer and end to end, is `go run ./bench` (bench/README.md).
bench:
	go test -run '^$$' -bench=. -benchmem -benchtime=1x .

# Where the cycle core's host time and bytes go: the Figure 5 grid (130
# from-reset runs, test scale). Prints the pass's B/op, the top 25
# allocation sites by bytes, then the top 25 functions by CPU. Leaves
# nothing behind. A run allocated 218 KiB while each built its machine
# new: memory frames 112, cache tag arrays 33, ROB 18, predictor 17,
# TLB banks 11, metrics registry and snapshot 18. Recycling machines
# (cpu.Machine.Release) took it to 40 KiB: TLB banks 11, metrics
# registry 8 and snapshot 6, page table 3, memory frames 2. Since a
# machine also keeps its address space, registry and one TLB device per
# design, and no sweep renders a snapshot, a pass allocated 1.4-1.7 MB,
# 11-13 KiB a run, half of it the ten program builds and memory frames.
# Since a program's data is one image its builder writes in place and
# every machine maps copy-on-write, a pass allocates 1.2 MB, 9.5 KiB a
# run: the engine's result, memo entry and flight 5, the pass's ten
# program builds 3 (their images 2.5), the figure 0.5, and inside the
# run only the frames it writes beyond the kept ones, 1. The first pass
# adds each new machine's TLB banks, tag arrays, ROB and predictor (~3
# KiB a run).
profile-core:
	@d=$$(mktemp -d) && \
	go test -run '^$$' -bench 'BenchmarkFigure5$$' -benchtime 2x -benchmem -memprofilerate 1 \
		-o $$d/hbat.test -memprofile $$d/mem.prof . | grep -o '[0-9]* B/op.*allocs/op' && \
	go tool pprof -top -sample_index alloc_space -nodecount 25 $$d/hbat.test $$d/mem.prof && \
	go test -run '^$$' -bench 'BenchmarkFigure5$$' -benchtime 5x -o $$d/hbat.test -cpuprofile $$d/cpu.prof . >/dev/null && \
	go tool pprof -top -nodecount 25 $$d/hbat.test $$d/cpu.prof; \
	rm -rf $$d

# Where a checkpointed sweep's bytes and host time go: the ffwd-99 plan
# (30 full-scale runs fast-forwarding 99 % through 10 shared
# checkpoints, fresh engine per iteration). One run records every
# allocation and prints the pass's B/op and the top 25 sites by
# alloc_space (the profile also holds the benchmark's one-time setup:
# each program built and run once on the interpreter to count it); a
# second, unperturbed run prints the top 25 functions by cumulative
# time. A pass allocated 15.4 MB (2-core Xeon) while builders staged
# arrays and encoded them into buffers (builds 4.5 MB), emu.New copied
# every loaded frame into the checkpoint build's memory (3.1) and the
# translated engine allocated a frame on a first read as on a first
# write (fast-forward 4.7, windows 0.5), besides the builds' tag arrays
# and predictors (1.2). With each program's data one image its builder
# writes in place and every machine maps copy-on-write, reads through
# a shared zero frame, and the builds' tag arrays recycled, it
# allocates 11.4 MB: frames the fast-forward writes 5.7 (copies of the
# image's written frames included), the images 2.9, the windows'
# frames 0.3, tag-array and predictor snapshots 0.6. The CPU header's
# "Total samples = ... (N%)" is CPU time over wall time: on two cores,
# 200 % means both worked throughout and a figure near 100 % means one
# sat idle (as one did while workers queued on one checkpoint build).
# ckpt.Build warms while it executes, so its time shows under
# sblock.(*Engine).Warm: execBlock itself plus the ckpt.(*buildState)
# sink methods Ref and Block it calls (~67 % of CPU); the cycle core's
# cpu.(*Machine).Run is ~27 %. The snapshot takes the build machine's
# frames instead of copying them, so it no longer shows (~1.7 % when it
# copied). Leaves nothing behind.
profile-ffwd:
	@d=$$(mktemp -d) && \
	go test -run '^$$' -bench 'BenchmarkFFwd99$$' -benchtime 3x -benchmem -memprofilerate 1 \
		-o $$d/hbat.test -memprofile $$d/mem.prof . | grep -o '[0-9]* B/op.*allocs/op' && \
	go tool pprof -top -sample_index alloc_space -nodecount 25 $$d/hbat.test $$d/mem.prof && \
	go test -run '^$$' -bench 'BenchmarkFFwd99$$' -benchtime 30x -o $$d/hbat.test -cpuprofile $$d/cpu.prof . >/dev/null && \
	go tool pprof -top -cum -nodecount 25 $$d/hbat.test $$d/cpu.prof; \
	rm -rf $$d

# Where a coordinator's store-hit job spends its bytes and host time:
# BenchmarkFleetHitJob (submit, wait, result through a coordinator over
# two workers, all in one process), which profiles the coordinator's
# intake path: its front end answers the job from its own store, and no
# worker sees it. One run records every allocation and prints the
# -benchmem line and the top 25 sites by alloc_space; a second,
# unperturbed run prints the CPU top 25. A job allocates ~17.2 KiB here
# (2-core Xeon): ~6.9 KiB is net/http's own cost for one HTTP exchange,
# both ends (net/http 4.1, textproto 2.1, context 0.4, url 0.3): the
# submit, whose 202 carries the finished status that api.Client.Wait
# returns and the artifact that api.Client.Result returns; encoding/json
# 2.6 (the artifact's base64 among it); the span tracing 2.1; api 1.8
# (the 202 body, read into one buffer of its declared length, and the
# artifact's checked hash); transport 1.7; engine 0.5. It allocated
# ~22.6 KiB while Result fetched the artifact in a second exchange, ~31
# KiB while Wait also asked for the status in a third and bodies were
# read by io.ReadAll, and ~87 KiB while the coordinator dispatched a
# stored spec to a worker: six HTTP exchanges, the dispatch stream and
# the worker's span feed. Leaves nothing behind.
profile-fleet:
	@d=$$(mktemp -d) && \
	go test -c -o $$d/fleet.test ./internal/fleet/ && \
	$$d/fleet.test -test.run '^$$' -test.bench 'BenchmarkFleetHitJob$$' -test.benchtime 2000x \
		-test.benchmem -test.memprofilerate 1 -test.memprofile $$d/mem.prof | grep '^Benchmark' && \
	$$d/fleet.test -test.run '^$$' -test.bench 'BenchmarkFleetHitJob$$' -test.benchtime 5000x \
		-test.cpuprofile $$d/cpu.prof >/dev/null && \
	go tool pprof -top -sample_index alloc_space -nodecount 25 $$d/fleet.test $$d/mem.prof && \
	go tool pprof -top -nodecount 25 $$d/fleet.test $$d/cpu.prof; \
	rm -rf $$d

# Regenerate every table and figure at small scale (minutes: use
# SCALE=full for the EXPERIMENTS.md headline numbers). Writes
# manifest.json with the spec list and artifact hashes.
SCALE ?= small
experiments:
	go run ./cmd/hbat-experiments -scale $(SCALE)

# The same, plus the self-contained HTML report rendered from the runs
# just simulated.
report:
	go run ./cmd/hbat-experiments -scale $(SCALE) -html report.html

# Live-telemetry demo: a test-scale evaluation with the observability
# server on :8090 and JSON logs. While it runs:
#   curl -s localhost:8090/metrics | grep hbat_sweep_
#   curl -s localhost:8090/health
serve-demo:
	go run ./cmd/hbat-experiments -scale test -html report.html \
		-obs 127.0.0.1:8090 -log-format json -log-level debug

cover:
	go test -cover ./...

# Non-test, non-generated Go lines: the serving stack vs the simulator
# it serves (ROADMAP's north star), and the v1 front-end subset.
loc:
	@scripts/loc.sh

clean:
	rm -f report.html manifest.json results_full.txt coverage.out
