GO ?= go

.PHONY: all build fmt vet test race crash fuzz-smoke race-parallel perf-sanity cluster-smoke snapshot-smoke wheel-smoke perfbench-check check bench

all: check

build:
	$(GO) build ./...

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The crash-enumeration suite, forced to re-run (-count=1) under the
# race detector: fault injection must stay bit-deterministic even with
# -race's scheduling noise.
crash:
	$(GO) test -race -count=1 -run TestCrashEnum ./internal/workload/

# A fixed-seed differential fuzzing campaign: 100 syscall programs,
# every personality compared against every other (internal/difftest).
# Deterministic by construction, so a failure here is a real semantic
# divergence, never flake.
fuzz-smoke:
	$(GO) run ./cmd/xok-bench -run difftest -seeds 100

# A short difftest batch fanned across 4 workers under the race
# detector: the canary for cross-machine shared state. Any package
# global mutated by two concurrently-running machines surfaces here as
# a data race (this is how xn's package-level LRU clock was caught).
race-parallel:
	$(GO) run -race ./cmd/xok-bench -run difftest -seeds 12 -parallel 4

# Perf sanity: the difftest campaign fanned across 4 workers must not
# be slower than the same campaign serial beyond a generous tolerance
# (single-CPU hosts legitimately see speedup ~1; what this catches is
# the harness actively LOSING to serial — coordination overhead or
# shared-state contention), and the committed BENCH_sim.json must
# carry no flagged regression. Reduced sizes keep it quick; the
# XOK_PERF_SANITY guard keeps the wall-clock assertions out of
# ordinary `go test ./...` runs where they would be noise.
perf-sanity:
	XOK_PERF_SANITY=1 $(GO) test -run TestPerfSanity -count=1 -v .

# Cluster smoke: a small topology-fabric sweep (1 server vs 2 behind
# the balancer) end to end through the xok-bench CLI, under the race
# detector. Guards the whole shared-engine path — N kernels on one
# event engine sharing its execution token, so every server's event
# callbacks run on whichever environment goroutine holds it, the
# balancer, open-loop arrivals — and its serial/parallel determinism
# (the full byte-identical check lives in
# TestClusterParallelMatchesSerial).
cluster-smoke:
	$(GO) run -race ./cmd/xok-bench -run cluster -servers 2 -conns 300

# Snapshot smoke: the fork fast path's equivalence guards, re-run
# (-count=1) under the race detector — replay equivalence (fork at a
# random MAB boundary continues bit-identically, with and without an
# armed fault plan), the crash sweep's snapshot-vs-boot digest match,
# and difftest's from-boot-vs-forked exact compare with concurrent
# forks from shared snapshots.
snapshot-smoke:
	$(GO) test -race -count=1 -run 'TestSnapshot' ./internal/workload/ ./internal/difftest/

# Wheel smoke: the cluster at 100k connections under the race
# detector, digest-pinned — one 4-server cell runs with the timer
# wheel and again on the pure heap, and the latency digests and
# engine event counts must match exactly (the wheel is an
# implementation detail; only host time may move). The XOK_WHEEL_SMOKE guard keeps the
# multi-minute raced run out of ordinary `go test ./...`.
wheel-smoke:
	XOK_WHEEL_SMOKE=1 $(GO) test -race -count=1 -run TestClusterConns100kWheelDigest -v ./internal/workload/

# Perfbench check: vet and test the perfbench module. It uses this
# module's packages through a replace directive, and the root
# `go test ./...` never compiles it, so an API change that breaks the
# repository benchmark surfaces here rather than at benchmark time.
# Offline and self-contained like perfbench/run.py: every Go cache and
# setting lives under .bench_build/, and vet/test write no binary into
# perfbench/.
PERFBENCH_ENV = GOCACHE=$(CURDIR)/.bench_build/go-cache GOPATH=$(CURDIR)/.bench_build/gopath \
	XDG_CONFIG_HOME=$(CURDIR)/.bench_build/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

perfbench-check:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test ./...

# The full pre-commit gate: everything compiles, the tree is gofmt
# clean, vet is clean, the whole suite passes under the race detector
# (the token-handoff protocol in internal/kernel is exactly the kind of
# code -race exists for), the parallel harness is race-clean, the
# crash-enumeration sweep re-runs, the differential fuzz smoke
# campaign comes back clean, snapshot forking reproduces boot runs
# bit-exactly, the 100k-connection cluster digests identically with
# the timer wheel on and off, the parallel harness is not slower than
# serial, and the perfbench module still builds and passes against this
# module's API.
check: build fmt vet race race-parallel crash fuzz-smoke cluster-smoke snapshot-smoke wheel-smoke perf-sanity perfbench-check

# Wall-clock benchmark baseline, committed as BENCH_sim.json so engine
# or harness regressions show up as a diff. Two tiers: the engine,
# kernel token-handoff, XN dirty-path and disk C-SCAN micro-benchmarks
# run at the default benchtime (they are the ns/op + allocs/op numbers
# the fast paths are judged on); the end-to-end experiment benchmarks
# (MAB, a Figure 4 cell, difftest serial-vs-parallel, crash
# serial-vs-parallel) each run their full campaign once, -benchtime=1x.
# Raw `go test` output passes through on stderr; stdout carries the
# JSON (see cmd/benchjson). The -expect list makes a silently vanished
# benchmark (renamed, paniced, filtered out) fail the run instead of
# quietly shrinking the committed baseline.
BENCH_EXPECT = BenchmarkEngineStepAfter16,BenchmarkEngineStepAfter1024,\
BenchmarkEngineStepAfterArg16,BenchmarkEngineStepAfterArg1024,\
BenchmarkEngineScheduleCancel,BenchmarkEngineScheduleCancelWheel,\
BenchmarkEngineTimersHeap65536,BenchmarkEngineTimersWheel65536,\
BenchmarkEngineTimersHeap1M,BenchmarkEngineTimersWheel1M,\
BenchmarkKernelUseInPlace,BenchmarkKernelEnvSwitch,\
BenchmarkXNMarkDirtyInFlight512,BenchmarkDiskPickDeepQueue,\
BenchmarkMAB/Xok-ExOS,BenchmarkMAB/FreeBSD,\
BenchmarkFigure4_GlobalPool1/Xok-ExOS,BenchmarkFigure4_GlobalPool1/FreeBSD,\
BenchmarkDifftest100Serial,BenchmarkDifftest100Parallel4,\
BenchmarkDifftest100SnapshotSerial,BenchmarkDifftest100SnapshotParallel4,\
BenchmarkCrashSweepSerial,BenchmarkCrashSweepParallel4,\
BenchmarkCrashSweepSnapshotSerial,BenchmarkCrashSweepSnapshotParallel4,\
BenchmarkClusterSerial,BenchmarkClusterParallel4,BenchmarkClusterConns100k

bench:
	@{ $(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchmem ./internal/sim/ && \
	   $(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchmem ./internal/kernel/ && \
	   $(GO) test -run '^$$' -bench 'BenchmarkXNMarkDirtyInFlight512|BenchmarkDiskPickDeepQueue' -benchmem ./internal/xn/ ./internal/disk/ && \
	   $(GO) test -run '^$$' -bench 'BenchmarkMAB$$|BenchmarkFigure4_GlobalPool1$$|BenchmarkDifftest100|BenchmarkCrashSweep|BenchmarkCluster' -benchmem -benchtime=1x . ; } \
	  | $(GO) run ./cmd/benchjson -expect '$(BENCH_EXPECT)' > BENCH_sim.json
	@echo "wrote BENCH_sim.json"
