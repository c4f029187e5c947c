package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"vrio/internal/bufpool"
	"vrio/internal/core"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// netRRModels are the four I/O models of the net-rr benchmark.
var netRRModels = []core.ModelName{core.ModelOptimum, core.ModelVRIO, core.ModelElvis, core.ModelBaseline}

// netRRSpec is the net-rr benchmark's rack: 8 VMs on 2 VMhosts, a
// generator per VM, 2 sidecores.
func netRRSpec(m core.ModelName) Spec {
	return Spec{
		Model: m, VMHosts: 2, VMsPerHost: 4,
		SidecoresPerHost: 1, IOhostSidecores: 2,
		StationPerVM: true, Seed: 1,
	}
}

// netRRTestbed builds the net-rr rack with a netperf RR server and client
// per VM, started and warmed up past the generators' 30 ms loss timeout:
// until then every transaction arms one more pending timer, so the engine's
// event pool is still growing.
func netRRTestbed(m core.ModelName) (*Testbed, []*workload.RR) {
	tb := Build(netRRSpec(m))
	var rrs []*workload.RR
	for i, g := range tb.Guests {
		workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
		rr := workload.NewRR(tb.StationFor(i), g.MAC(), 16)
		rr.Start()
		rr.Results.StartMeasuring()
		rrs = append(rrs, rr)
	}
	tb.Eng.RunUntil(40 * sim.Millisecond)
	return tb, rrs
}

// netRROps totals the completed RR transactions.
func netRROps(rrs []*workload.RR) uint64 {
	var n uint64
	for _, rr := range rrs {
		n += rr.Results.Ops
	}
	return n
}

// TestNetRRSteadyStateZeroAlloc pins the testbed-level zero-allocation
// invariant: once warm, netperf RR under every I/O model — guest stacks,
// host back ends, NICs, switch, transport and IOhost forwarding — runs
// without a heap allocation.
func TestNetRRSteadyStateZeroAlloc(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, m := range netRRModels {
		t.Run(string(m), func(t *testing.T) {
			tb, rrs := netRRTestbed(m)
			before := netRROps(rrs)
			// Each 100 µs advance carries some twenty transactions, so one
			// allocation per packet or transaction shows as twenty or more
			// per run.
			// The average admits the rare, amortized growth of a queue or
			// histogram to a new high-water mark.
			allocs := testing.AllocsPerRun(100, func() {
				tb.Eng.RunUntil(tb.Eng.Now() + 100*sim.Microsecond)
			})
			if netRROps(rrs) == before {
				t.Fatal("no RR transaction completed while measuring")
			}
			if allocs != 0 {
				t.Errorf("%v allocs per 100 µs of net-rr, want 0", allocs)
			}
		})
	}
}

// TestSidecoreWaitExport pins which cores record their queue waits: each
// sidecore records into the histogram the registry exports as
// sidecore<i>/wait_ns, one sample per item it dispatched, and no VM, IO or
// generator core records at all.
func TestSidecoreWaitExport(t *testing.T) {
	for _, m := range []core.ModelName{core.ModelElvis, core.ModelVRIO} {
		t.Run(string(m), func(t *testing.T) {
			tb, _ := netRRTestbed(m)
			if len(tb.Sidecores) == 0 {
				t.Fatal("no sidecores")
			}
			for i, sc := range tb.Sidecores {
				exported := tb.Metrics.Get(fmt.Sprintf("sidecore%d", i), "wait_ns")
				if exported == nil || sc.Wait == nil || sc.Wait != exported.Hist() {
					t.Fatalf("sidecore %d: Wait is not the exported sidecore%d/wait_ns", i, i)
				}
				h := sc.Wait
				dispatched := sc.Executed
				if sc.Busy() {
					dispatched++
				}
				if h.Count() == 0 || h.Count() != dispatched {
					t.Errorf("sidecore %d: %d waits recorded, %d items dispatched", i, h.Count(), dispatched)
				}
			}
			for k, cores := range [][]*cpu.Core{tb.VMCores, tb.IOCores, tb.GenCores} {
				for j, c := range cores {
					if c.Wait != nil {
						t.Errorf("%s core %d records its queue waits", [...]string{"VM", "I/O", "generator"}[k], j)
					}
				}
			}
		})
	}
}

// pinger is a closed-loop RR client that allocates nothing of its own:
// it resends one reused payload whenever the previous echo returns, and arms
// no loss timer (workload.RR's 30 ms timers grow the engine's event pool).
type pinger struct {
	st  *workload.Station
	dst ethernet.MAC
	req []byte
	ops uint64
}

func newPinger(st *workload.Station, dst ethernet.MAC) *pinger {
	c := &pinger{st: st, dst: dst, req: make([]byte, 16)}
	st.Subscribe(dst, func(ethernet.Frame) {
		c.ops++
		c.send()
	})
	return c
}

func (c *pinger) send() {
	c.st.Send(ethernet.Frame{Dst: c.dst, EtherType: ethernet.EtherTypePlain, Payload: c.req}, nil)
}

// TestNetRRColdStartAllocBudget bounds the heap a fresh net-rr testbed
// allocates over its first 10 ms of traffic, per I/O model. The steady-state
// guard warms each testbed for 40 ms first, so it misses growth that every
// new testbed pays, such as a histogram nothing reads filling its buckets.
// The budget admits the first-use growth of queues, rings and pools.
func TestNetRRColdStartAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	const budget = 48 << 10
	for _, m := range netRRModels {
		t.Run(string(m), func(t *testing.T) {
			tb := Build(netRRSpec(m))
			var clients []*pinger
			for i, g := range tb.Guests {
				workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
				clients = append(clients, newPinger(tb.StationFor(i), g.MAC()))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, c := range clients {
				c.send()
			}
			tb.Eng.RunUntil(10 * sim.Millisecond)
			runtime.ReadMemStats(&after)
			for i, c := range clients {
				if c.ops == 0 {
					t.Fatalf("guest %d completed no transaction", i)
				}
			}
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("first 10 ms allocated %d bytes", got)
			if got >= budget {
				t.Errorf("first 10 ms allocated %d bytes, budget %d", got, budget)
			}
		})
	}
}

// BenchmarkNetRRTransaction reports the host cost of one netperf RR
// transaction (ns and allocs per op) on the net-rr rack, per I/O model, and
// the testbed pool's loans per transaction (loans/op).
func BenchmarkNetRRTransaction(b *testing.B) {
	for _, m := range netRRModels {
		b.Run(string(m), func(b *testing.B) {
			tb, rrs := netRRTestbed(m)
			b.ReportAllocs()
			b.ResetTimer()
			start, gets := netRROps(rrs), tb.pool.Stats.Gets
			for netRROps(rrs)-start < uint64(b.N) {
				tb.Eng.RunUntil(tb.Eng.Now() + 10*sim.Microsecond)
			}
			b.ReportMetric(float64(tb.pool.Stats.Gets-gets)/float64(netRROps(rrs)-start), "loans/op")
		})
	}
}

// TestBuildAllocBudget bounds the heap cluster.Build allocates for the
// net-rr rack, bytes and allocations, under each I/O model, a few percent
// above what it takes. Ring buffers are drawn from the testbed's pool as
// descriptors carry data, so an idle ring costs its one block of ring
// memory and its buffer slots, not a payload slab; metrics are indexed
// without building their names, and the flight recorder's ring waits for
// its first record.
func TestBuildAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	budgets := map[core.ModelName]struct{ bytes, allocs uint64 }{
		core.ModelOptimum:  {50_000, 630},
		core.ModelVRIO:     {77_500, 980},
		core.ModelElvis:    {287_000, 860},
		core.ModelBaseline: {286_000, 835},
	}
	for _, m := range netRRModels {
		t.Run(string(m), func(t *testing.T) {
			spec := netRRSpec(m)
			Build(spec) // first use of any lazily built package state
			const builds = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < builds; i++ {
				Build(spec)
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / builds
			allocs := (after.Mallocs - before.Mallocs) / builds
			t.Logf("Build: %d B, %d allocs", bytes, allocs)
			if b := budgets[m]; bytes > b.bytes || allocs > b.allocs {
				t.Errorf("Build allocated %d B in %d allocs, budget %d B in %d", bytes, allocs, b.bytes, b.allocs)
			}
		})
	}
}

// BenchmarkBuild reports the host cost of building the net-rr rack, per I/O
// model.
func BenchmarkBuild(b *testing.B) {
	for _, m := range netRRModels {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(netRRSpec(m))
			}
		})
	}
}
