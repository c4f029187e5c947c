# Developer targets. `make check` is the full gate: build, vet, tests (the
# engine's zero-allocation guards and the seed corpus of FuzzEngineSchedule
# among them), the race detector over every package (once) — the parallel
# experiment scheduler must stay race-clean — the zero-allocation guards,
# doccheck, the loopback smoke test and gofmt. The race-* targets re-run subsets of `race`
# for focused local work; `check` does not repeat them.

GO ?= go

.PHONY: build test vet race bench bench-engine bench-rack bench-datapath bench-fabric bench-realwire bench-mq bench-vol race-rack race-fault race-shard race-trace race-mq race-vol doccheck loadgen-smoke benchjson memprofile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The experiment scheduler fans simulation cells across goroutines; any
# shared mutable state a future experiment sneaks in must fail here.
race:
	$(GO) test -race ./...

# Full evaluation benchmarks (quick mode), serial vs parallel.
bench:
	$(GO) test -run xxx -bench 'BenchmarkRunAll' -benchmem .

# Engine hot-path microbenchmarks (schedule/cancel/pending, the net-rr delay
# mix, retransmit-style timers beyond the wheel's horizon) plus the engine's
# zero-allocation guards and the seed corpus of its differential fuzz target
# (all three also run under `test`, and so in `check`).
bench-engine:
	$(GO) test -run 'TestEngineSteadyStateZeroAlloc|TestEngineTickerZeroAllocPerTick|FuzzEngineSchedule' \
		-bench . -benchmem ./internal/sim/

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

# Datapath microbenchmarks plus the zero-allocation guards (driver-to-endpoint
# over pooled NIC rings; net-tx must be 0 allocs/op), the block backend
# under them (a 4 KiB device write+read and a 4 KiB reassembly; the store
# write and the device read fill must be 0 allocs/op), and the per-packet
# bookkeeping (histogram Record, counter Inc, a frame through the switch, a
# single-fragment reassembly; all must be 0 allocs/op).
bench-datapath:
	$(GO) test -run 'TestHotPathZeroAlloc|TestStoreWriteAndDeviceReadZeroAlloc|TestRecordAndIncZeroAlloc|TestSwitchForwardZeroAlloc|TestSingleFragmentAddZeroAlloc' \
		-bench 'BenchmarkDatapath|BenchmarkDeviceRW4K|BenchmarkReassemble4K|BenchmarkHistogramRecord|BenchmarkCountersInc|BenchmarkSwitchForward' -benchmem \
		./internal/transport/ ./internal/blockdev/ ./internal/ethernet/ ./internal/stats/ ./internal/link/

# Sharded-fabric wall-clock benchmark: the 16-rack cross-rack workload at 1
# worker vs GOMAXPROCS workers (the shard_speedup of BENCH json).
bench-fabric:
	$(GO) test -run xxx -bench 'BenchmarkFabricSharded' -benchtime 2x .

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

# Real-wire microbenchmarks: frame seal+decode overhead and a 4 KiB block
# roundtrip over real loopback UDP sockets (both must stay 0 allocs/op).
bench-realwire:
	$(GO) test -run TestSealDecodeNoAlloc -bench . -benchmem ./internal/netwire/

# Two-process loopback smoke test for the real-wire carrier: vrio-loadgen
# server+driver over 127.0.0.1, once over UDP with injected loss (retransmit
# recovery) and once over TCP+TLS. Hash-verified, bounded wall time.
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# Multi-queue block path: the QD=8 x NQ=4 datapath benchmark plus its
# zero-allocation guard (datapath_blk_mq_* in BENCH json must stay 0
# allocs/op).
bench-mq:
	$(GO) test -run TestHotPathZeroAllocMQ -bench 'BenchmarkDatapathBlkMQ' -benchmem ./internal/transport/

# The multi-queue submission path under the race detector: queue-tagged
# transport ids, per-queue in-flight tables and pinned workers in iohyp, the
# range-conflict scheduler, and the mqscaling cells (which run concurrently
# under -parallel).
race-mq:
	$(GO) test -race -run 'MQ|Queue|Scheduler' ./internal/transport/ ./internal/iohyp/ ./internal/blockdev/ ./internal/experiments/

# Distributed-volume write path: the R=1 quorum write benchmark plus its
# zero-allocation guard (vol_write_quorum_* in BENCH json must stay 0
# allocs/op on the fast path).
bench-vol:
	$(GO) test -run TestVolumeWriteQuorumZeroAlloc -bench 'BenchmarkVolumeWriteQuorum' -benchmem ./internal/core/

# The distributed-volume layer under the race detector: extent maps and
# versioned replica state, the volume router's quorum/rebuild machinery, the
# cluster volume wiring, and the volrebuild cells (which run concurrently
# under -parallel).
race-vol:
	$(GO) test -race -run 'Vol|Quorum|Rebuild|Replica' ./internal/blockdev/ ./internal/core/ ./internal/cluster/ ./internal/experiments/

# Documentation gate: every exported symbol in blockdev/iohyp/cluster has a
# doc comment, and README's architecture map covers every internal/ package.
doccheck:
	./scripts/doccheck.sh

# Benchmark-trajectory record: writes BENCH_<date>.json with wall clock and
# events/sec for serial vs parallel RunAll.
benchjson:
	$(GO) run ./cmd/vrio-experiments -quick -benchjson

# Heap profile of a full quick evaluation run: mem.pprof records alloc_space,
# the before/after ledger of the buffer-pooling work (see EXPERIMENTS.md).
memprofile:
	$(GO) run ./cmd/vrio-experiments -run all -quick -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -sample_index=alloc_space -nodecount 15 mem.pprof

check: build vet test race bench-mq bench-vol doccheck loadgen-smoke
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: the files above are not formatted"; exit 1; }
