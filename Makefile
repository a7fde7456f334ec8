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
# design, and no sweep renders a snapshot, a pass allocates 1.4 MB, 11
# KiB a run: the engine's result, memo entry and flight 5, the pass's
# ten program builds 4, the figure 0.5, and inside the run only memory
# frames beyond the kept ones, 2. The first pass adds each new
# machine's TLB banks, tag arrays, ROB and predictor (~3 KiB a run).
profile-core:
	@d=$$(mktemp -d) && \
	go test -run '^$$' -bench 'BenchmarkFigure5$$' -benchtime 2x -benchmem -memprofilerate 1 \
		-o $$d/hbat.test -memprofile $$d/mem.prof . | grep -o '[0-9]* B/op.*allocs/op' && \
	go tool pprof -top -sample_index alloc_space -nodecount 25 $$d/hbat.test $$d/mem.prof && \
	go test -run '^$$' -bench 'BenchmarkFigure5$$' -benchtime 5x -o $$d/hbat.test -cpuprofile $$d/cpu.prof . >/dev/null && \
	go tool pprof -top -nodecount 25 $$d/hbat.test $$d/cpu.prof; \
	rm -rf $$d

# Where a checkpointed sweep's host time goes: a CPU profile of the
# ffwd-99 plan (30 full-scale runs fast-forwarding 99 % through 10
# shared checkpoints, fresh engine per iteration), top 25 functions by
# cumulative time. The header's "Total samples = ... (N%)" is CPU time
# over wall time: on two cores, 200 % means both worked throughout and
# a figure near 100 % means one sat idle (waiting on the other's
# checkpoint build, before ISSUE 18). ckpt.Build warms while it
# executes, so its time shows under sblock.(*Engine).Warm: execBlock
# itself plus the ckpt.(*buildState) sink methods Ref and Block it
# calls (~67 % of CPU); the cycle core's cpu.(*Machine).Run is ~27 %.
# The snapshot takes the build machine's frames instead of copying
# them, so it no longer shows (~1.7 % when it copied). Leaves nothing
# behind.
profile-ffwd:
	@d=$$(mktemp -d) && \
	go test -run '^$$' -bench 'BenchmarkFFwd99$$' -benchtime 30x -o $$d/hbat.test -cpuprofile $$d/cpu.prof . >/dev/null && \
	go tool pprof -top -cum -nodecount 25 $$d/hbat.test $$d/cpu.prof; \
	rm -rf $$d

# Where a coordinator's store-hit job spends its bytes and host time:
# BenchmarkFleetHitJob (submit, wait, result through a coordinator over
# two workers, all in one process), which profiles the coordinator's
# intake path: its front end answers the job from its own store, and no
# worker sees it. One run records every allocation and prints the
# -benchmem line and the top 25 sites by alloc_space; a second,
# unperturbed run prints the CPU top 25. A job allocates ~31 KiB here
# (2-core Xeon): ~22 KiB is net/http's own cost for three HTTP
# exchanges, both ends (net/http 11, textproto 6, io 2.5, url 1.3,
# context 1.3); the span tracing 2.2; encoding/json 2.2; transport 1.4;
# api and engine ~1. It allocated ~87 KiB while the coordinator
# dispatched a stored spec to a worker: six HTTP exchanges, the
# dispatch stream and the worker's span feed. Leaves nothing behind.
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
