# Developer targets. `make check` is the full gate: build, vet, tests (the
# engine's zero-allocation guards, the seed corpus of FuzzEngineSchedule and
# TestClaimsFull, every paper claim on a full-length run, among them), the
# race detector over every package (once; it skips TestClaimsFull and runs
# every experiment through the quick run) — the parallel experiment
# scheduler must stay race-clean — every zero-allocation guard
# with its microbenchmarks (`bench-guards`), doccheck, the loopback smoke
# test, vet and tests of the vriobench module, and gofmt. The root module's
# `go build ./...` does not compile vriobench/, so its own step is what
# catches a change that breaks the benchmark. The race-* targets re-run
# subsets of `race` for focused local work; `check` does not repeat them.
# End-to-end timings (the quick suite, serial and parallel, and the sharded
# fabric's speedup) come from vriobench/ alone; see its README.

GO ?= go

.PHONY: build test vet race bench-guards bench-rack race-rack race-fault race-shard race-trace race-mq race-vol doccheck loadgen-smoke memprofile check

build:
	$(GO) build ./...

# Runs TestClaimsFull: every claim checked on a full-length run of every
# experiment (about 10 s on 2 CPUs; `-short` skips it).
test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The experiment scheduler fans simulation cells across goroutines; any
# shared mutable state a future experiment sneaks in must fail here. Race
# builds also turn on bufpool's ownership checks: a free-list item or a slab
# put twice, and a slab written after PutRaw, panic. Race builds skip
# TestClaimsFull (several times slower there); TestClaimsQuick's quick run
# covers the same experiments.
race:
	$(GO) test -race ./...

# Zero-allocation guards and the microbenchmarks they guard, one row per
# package: the package, the guard tests (`-run`), the benchmarks (`-bench`).
#   sim:       engine schedule/cancel/pending, the net-rr delay mix and
#              retransmit-style timers beyond the wheel's horizon; the
#              steady-state and ticker guards; FuzzEngineSchedule's seed corpus.
#   transport: driver-to-endpoint over pooled NIC rings (net-tx, block
#              roundtrip, with the pool loans of each) and the QD=8 x NQ=4
#              multi-queue block path; the slabs a 4 KiB block write and
#              read take, the received frame as the request's lease, and
#              a block reply gathered from its parts, byte for byte.
#   blockdev:  a 4 KiB store write + device read fill; what a store
#              allocates: its page directory, one 4 KiB page on a first
#              write, nothing on an overwrite; a whole-page fan-out to a
#              page three replica stores share, once their free list holds
#              a page.
#   ethernet:  a 4 KiB reassembly, and a single-fragment message completed
#              in place beside a pending partial.
#   stats:     histogram Record, counter Inc.
#   link:      a frame through the switch.
#   netwire:   frame seal+decode, a 4 KiB block roundtrip over loopback UDP.
#   core:      the R=1 distributed-volume quorum write; the slabs a 4 KiB
#              read takes on the Elvis and baseline rings; an rx frame
#              delivered, reaped and its buffer restocked.
#   iohyp:     IOhost dispatch: a net-tx message forwarded to the uplink, an
#              uplink frame delivered to a client, an MQ block read served
#              and answered.
#   virtio:    a frame through a free interposition chain; a request
#              through a warm ring (Add, PopInto, Push, ReapInto) and the
#              pool loans it takes.
#   cluster:   a netperf RR transaction on the net-rr rack, per I/O model
#              (optimum, vrio, elvis, baseline), and a blk-rw block op on
#              each block pipeline (vrio, vrio-volume, elvis, baseline),
#              testbed end to end, with the pool loans of each; building
#              the net-rr rack per model.
# Every guard must stay at 0 allocs/op, except three that bound a cold
# window: TestBuildAllocBudget holds Build of the net-rr rack, per model, a
# few percent above its bytes and allocations (optimum 50 kB in 630, vrio
# 77.5 kB in 980, Elvis 287 kB in 860, baseline 286 kB in 835),
# TestNetRRColdStartAllocBudget holds a fresh net-rr testbed's first 10 ms
# of traffic below 48 KiB per model, and TestBlkColdStartAllocBudget holds
# a fresh blk-rw testbed's first 10 ms of block I/O a few percent above its
# bytes per pipeline (vRIO remote 420 KiB, Elvis 184 KiB, baseline 368 KiB,
# and the R3/W2 volume 6400 KiB with its write sweep's pages, one per block
# for its three replicas).
# The guards also run under `test`.
BENCH_GUARDS = \
	./internal/sim/       'TestEngineSteadyStateZeroAlloc|TestEngineTickerZeroAllocPerTick|FuzzEngineSchedule' . \
	./internal/transport/ 'TestHotPathZeroAlloc|TestHotPathZeroAllocMQ|TestBlkSlabsZeroCopy|TestRespondBlkGatherKeepsWireBytes' 'BenchmarkDatapath' \
	./internal/blockdev/  'TestStoreWriteAndDeviceReadZeroAlloc|TestStoreWriteAllocs|TestReplicaStoresSharedWriteZeroAlloc' 'BenchmarkDeviceRW4K' \
	./internal/ethernet/  'TestSingleFragmentAddZeroAlloc'              'BenchmarkReassemble4K' \
	./internal/stats/     'TestRecordAndIncZeroAlloc'                   'BenchmarkHistogramRecord|BenchmarkCountersInc' \
	./internal/link/      'TestSwitchForwardZeroAlloc'                  'BenchmarkSwitchForward' \
	./internal/netwire/   'TestSealDecodeNoAlloc'                       . \
	./internal/core/      'TestVolumeWriteQuorumZeroAlloc|TestRingBlkReadSlabs|TestNetQueuesRxRestockZeroAlloc' 'BenchmarkVolumeWriteQuorum' \
	./internal/iohyp/     'TestIOhostDispatchZeroAlloc'                 'BenchmarkIOhostDispatch' \
	./internal/virtio/    'TestNetServerFreeChainZeroAlloc|TestRingSteadyStateZeroAlloc' 'BenchmarkRingRoundTrip' \
	./internal/cluster/   'TestNetRRSteadyStateZeroAlloc|TestBlkRWSteadyStateZeroAlloc|TestBuildAllocBudget|TestNetRRColdStartAllocBudget|TestBlkColdStartAllocBudget' 'BenchmarkNetRRTransaction|BenchmarkBlkRWOp|BenchmarkBuild'

bench-guards:
	@set -- $(BENCH_GUARDS); while [ $$# -gt 0 ]; do \
		echo "$(GO) test -run '$$2' -bench '$$3' -benchmem $$1"; \
		$(GO) test -run "$$2" -bench "$$3" -benchmem "$$1" || exit 1; \
		shift 3; \
	done

# Rack control-plane macrobenchmark (imbalance healing end to end).
bench-rack:
	$(GO) test -run xxx -bench 'BenchmarkRackRebalance' -benchmem ./internal/rack/

# The control-plane tests alone under the race detector (subset of `race`).
race-rack:
	$(GO) test -race ./internal/rack/

# Fault-injection suite under the race detector: the fault package itself,
# the rig-based retransmission tests, and the faulttolerance experiment
# (whose cells run concurrently under -parallel).
race-fault:
	$(GO) test -race ./internal/fault/ ./internal/transport/ ./internal/experiments/

# The sharded simulator under the race detector: shard coordinator, fabric
# switching, multi-rack cluster assembly, and the datacenter control plane.
# The coordinator hands whole engines to worker goroutines every sync window;
# any state shared across a shard boundary without a barrier must fail here.
race-shard:
	$(GO) test -race -run 'Shard|Fabric|Datacenter' ./internal/sim/ ./internal/link/ ./internal/cluster/ ./internal/rack/

# The observability plane under the race detector: per-shard tracers, the
# flight-recorder rings, the metrics rollup's per-shard tickers, and the
# fabrictrace worker-equivalence run. Spans, rollup rows, and flight dumps
# are recorded shard-locally and merged only between windows; a reader that
# crosses a shard boundary mid-window must fail here.
race-trace:
	$(GO) test -race -run 'Trace|Flight|Rollup|Merge' ./internal/trace/ ./internal/sim/ ./internal/rack/ ./internal/experiments/

# Two-process loopback smoke test for the real-wire carrier: vrio-loadgen
# server+driver over 127.0.0.1 UDP with injected loss (retransmit recovery).
# Hash-verified, bounded wall time.
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# The multi-queue submission path under the race detector: queue-tagged
# transport ids, per-queue depths and pinned workers in iohyp, the
# range-conflict scheduler, and the mqscaling cells (which run concurrently
# under -parallel).
race-mq:
	$(GO) test -race -run 'MQ|Queue|Scheduler' ./internal/transport/ ./internal/iohyp/ ./internal/blockdev/ ./internal/workload/ ./internal/experiments/

# The distributed-volume layer under the race detector: extent maps and
# versioned replica state, the volume router's quorum/rebuild machinery, the
# cluster volume wiring, and the volrebuild cells (which run concurrently
# under -parallel).
race-vol:
	$(GO) test -race -run 'Vol|Quorum|Rebuild|Replica' ./internal/blockdev/ ./internal/core/ ./internal/cluster/ ./internal/experiments/

# Documentation gate: every exported symbol in every internal/ package and
# the root package has a doc comment, README's architecture map covers every
# internal/ package, and no internal/ func, const, var, type or method,
# unexported ones included, goes unused by the non-test code of both
# modules, outside the reasoned exceptions in scripts/api_allowlist.txt.
# That last check (scripts/deadexports) is type-checked with go/types, so a
# use counts only when it resolves to the symbol itself, and a method that
# satisfies an interface, as decided by types.Implements, counts as used.
doccheck:
	./scripts/doccheck.sh

# Heap profile of a full quick evaluation run: mem.pprof records alloc_space,
# the before/after ledger of the buffer-pooling work (see EXPERIMENTS.md).
memprofile:
	$(GO) run ./cmd/vrio-experiments -run all -quick -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -sample_index=alloc_space -nodecount 15 mem.pprof

check: build vet test race bench-guards doccheck loadgen-smoke
	cd vriobench && $(GO) vet ./... && $(GO) test ./...
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: the files above are not formatted"; exit 1; }
