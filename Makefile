# Developer targets. `make check` is the full gate: build, vet, tests (the
# engine's zero-allocation guards and the seed corpus of FuzzEngineSchedule
# among them), the race detector over every package (once) — the parallel
# experiment scheduler must stay race-clean — every zero-allocation guard
# with its microbenchmarks (`bench-guards`), doccheck, the loopback smoke
# test and gofmt. The race-* targets re-run subsets of `race` for focused
# local work; `check` does not repeat them.

GO ?= go

.PHONY: build test vet race bench bench-guards bench-rack bench-fabric race-rack race-fault race-shard race-trace race-mq race-vol doccheck loadgen-smoke memprofile check

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

# Zero-allocation guards and the microbenchmarks they guard, one row per
# package: the package, the guard tests (`-run`), the benchmarks (`-bench`).
#   sim:       engine schedule/cancel/pending, the net-rr delay mix and
#              retransmit-style timers beyond the wheel's horizon; the
#              steady-state and ticker guards; FuzzEngineSchedule's seed corpus.
#   transport: driver-to-endpoint over pooled NIC rings (net-tx, block
#              roundtrip) and the QD=8 x NQ=4 multi-queue block path.
#   blockdev:  a 4 KiB store write + device read fill.
#   ethernet:  a 4 KiB and a single-fragment reassembly.
#   stats:     histogram Record, counter Inc.
#   link:      a frame through the switch.
#   netwire:   frame seal+decode, a 4 KiB block roundtrip over loopback UDP.
#   core:      the R=1 distributed-volume quorum write.
#   iohyp:     IOhost dispatch: a net-tx message forwarded to the uplink, an
#              uplink frame delivered to a client, an MQ block read served
#              and answered.
#   cluster:   a netperf RR transaction on the net-rr rack, per I/O model
#              (optimum, vrio, elvis, baseline), and a blk-rw block op on
#              each block pipeline (vrio, vrio-volume, elvis, baseline),
#              testbed end to end.
# Every guard must stay at 0 allocs/op. The guards also run under `test`.
BENCH_GUARDS = \
	./internal/sim/       'TestEngineSteadyStateZeroAlloc|TestEngineTickerZeroAllocPerTick|FuzzEngineSchedule' . \
	./internal/transport/ 'TestHotPathZeroAlloc|TestHotPathZeroAllocMQ' 'BenchmarkDatapath' \
	./internal/blockdev/  'TestStoreWriteAndDeviceReadZeroAlloc'        'BenchmarkDeviceRW4K' \
	./internal/ethernet/  'TestSingleFragmentAddZeroAlloc'              'BenchmarkReassemble4K' \
	./internal/stats/     'TestRecordAndIncZeroAlloc'                   'BenchmarkHistogramRecord|BenchmarkCountersInc' \
	./internal/link/      'TestSwitchForwardZeroAlloc'                  'BenchmarkSwitchForward' \
	./internal/netwire/   'TestSealDecodeNoAlloc'                       . \
	./internal/core/      'TestVolumeWriteQuorumZeroAlloc'              'BenchmarkVolumeWriteQuorum' \
	./internal/iohyp/     'TestIOhostDispatchZeroAlloc'                 'BenchmarkIOhostDispatch' \
	./internal/cluster/   'TestNetRRSteadyStateZeroAlloc|TestBlkRWSteadyStateZeroAlloc' 'BenchmarkNetRRTransaction|BenchmarkBlkRWOp'

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

# Sharded-fabric wall-clock benchmark: the 16-rack cross-rack workload at 1
# worker vs GOMAXPROCS workers (vriobench's traced run reports the same ratio
# as sim.shard_speedup).
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

# Two-process loopback smoke test for the real-wire carrier: vrio-loadgen
# server+driver over 127.0.0.1, once over UDP with injected loss (retransmit
# recovery) and once over TCP+TLS. Hash-verified, bounded wall time.
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# The multi-queue submission path under the race detector: queue-tagged
# transport ids, per-queue depths and pinned workers in iohyp, the
# range-conflict scheduler, and the mqscaling cells (which run concurrently
# under -parallel).
race-mq:
	$(GO) test -race -run 'MQ|Queue|Scheduler' ./internal/transport/ ./internal/iohyp/ ./internal/blockdev/ ./internal/experiments/

# The distributed-volume layer under the race detector: extent maps and
# versioned replica state, the volume router's quorum/rebuild machinery, the
# cluster volume wiring, and the volrebuild cells (which run concurrently
# under -parallel).
race-vol:
	$(GO) test -race -run 'Vol|Quorum|Rebuild|Replica' ./internal/blockdev/ ./internal/core/ ./internal/cluster/ ./internal/experiments/

# Documentation gate: every exported symbol in blockdev/iohyp/cluster/virtio/
# core has a doc comment, and README's architecture map covers every internal/ package.
doccheck:
	./scripts/doccheck.sh

# Heap profile of a full quick evaluation run: mem.pprof records alloc_space,
# the before/after ledger of the buffer-pooling work (see EXPERIMENTS.md).
memprofile:
	$(GO) run ./cmd/vrio-experiments -run all -quick -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -sample_index=alloc_space -nodecount 15 mem.pprof

check: build vet test race bench-guards doccheck loadgen-smoke
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: the files above are not formatted"; exit 1; }
