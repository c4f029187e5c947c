package experiments

import (
	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// ablationMTU sweeps the vRIO channel MTU, demonstrating §4.4's choice of
// 8100: 9000 breaks the 17-page zero-copy budget and pays copies; 1500
// multiplies fragment counts.
var ablationMTU = &Grid{
	ID:    "ablation-mtu",
	Title: "vRIO channel MTU ablation (stream, 4 VMs)",
	Axes:  []Axis{axis("MTU", "1500", "4000", "8100", "9000")},
	Cell: func(quick bool, pt Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 50*sim.Millisecond)
		p := params.Default()
		p.MTU = pt.Int("MTU")
		tb := cluster.Build(cluster.Spec{Model: core.ModelVRIO, VMsPerHost: 4, Params: &p, Seed: 301})
		s := tb.RunEach(warm, dur, tb.StartStream)
		return one(Metrics{"Gbps": s.Gbps, "copied": float64(tb.IOHyp.Counters.Get("copy_bytes"))})
	},
	Cols:  []Col{axisCol("MTU"), num("Gbps", "Gbps", f2), num("copied bytes at IOhost", "copied", d)},
	Notes: lines("§4.4: MTU 8100 keeps 64KiB messages within 17 pages (zero copy); 9000 forces copies; small MTUs cost fragments"),
}

// ablationRxRing reproduces §4.5's fix: a small IOhost rx ring drops frames
// under bursty stream traffic; the paper's move from 512 to 4096 eliminated
// in-the-wild loss.
var ablationRxRing = &Grid{
	ID:    "ablation-rxring",
	Title: "IOhost rx ring size under bursty stream load (vRIO, 6 VMs)",
	Axes:  []Axis{axis("ring", "64", "128", "512", "4096")},
	Cell: func(quick bool, pt Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
		p := params.Default()
		p.RxRingSize = pt.Int("ring")
		tb := cluster.Build(cluster.Spec{Model: core.ModelVRIO, VMsPerHost: 6, Params: &p, Seed: 311})
		s := tb.RunEach(warm, dur, tb.StartStream)
		return one(Metrics{"drops": float64(tb.IOHyp.ChannelDrops()), "Gbps": s.Gbps})
	},
	Cols:  []Col{axisCol("ring"), num("frames dropped", "drops", d), num("Gbps", "Gbps", f2)},
	Notes: lines("§4.5: the paper saw in-the-wild loss with a 512 ring; 4096 eliminated it"),
}

// retransmitTimeouts are the ablation's initial timeouts by label.
var retransmitTimeouts = map[string]sim.Time{
	"2.000ms": 2 * sim.Millisecond, "10.000ms": 10 * sim.Millisecond, "80.000ms": 80 * sim.Millisecond,
}

// ablationRetransmit sweeps the initial block retransmission timeout under
// a tiny rx ring shared with bursty stream traffic, so block requests
// genuinely get lost and the §4.5 machinery decides recovery speed.
var ablationRetransmit = &Grid{
	ID:    "ablation-retransmit",
	Title: "Block retransmission initial timeout under induced loss (vRIO)",
	Axes:  []Axis{axis("timeout", "2.000ms", "10.000ms", "80.000ms")},
	Cell: func(quick bool, pt Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 80*sim.Millisecond)
		p := params.Default()
		p.RetransmitTimeout = retransmitTimeouts[pt["timeout"]]
		p.RxRingSize = 32 // force loss when streams burst
		tb := cluster.Build(cluster.Spec{
			Model: core.ModelVRIO, VMsPerHost: 8,
			WithBlock: true, WithThreads: true, Params: &p, Seed: 321,
		})
		// Guests 0-5 stream (the burst source); guests 6-7 run block I/O.
		rs := tb.StartEach(func(i int) *workload.Results {
			if i < 6 {
				return tb.StartStream(i)
			}
			return tb.StartFilebench(i, 2, 2, 340)
		})
		tb.RunMeasured(warm, dur, rs...)
		m := Metrics{"ops/s": workload.Summarize(rs[6:], dur).OpsPerSec}
		for _, cl := range tb.VRIOClients {
			m["retransmits"] += float64(cl.Driver.Counters.Get("retransmits"))
			m["device errors"] += float64(cl.Driver.Counters.Get("device_errors"))
		}
		return one(m)
	},
	Cols: []Col{axisCol("timeout"), num("retransmits", "retransmits", d),
		num("device errors", "device errors", d), num("block ops/sec", "ops/s", f0)},
	Notes: lines("shorter timeouts recover lost block requests faster; the paper uses 10ms doubling"),
}

// ablationSteering compares the §4.1 per-device steering policy's ordering
// guarantee cost against raw least-loaded dispatch by measuring worker
// balance under a many-device block load: one cell, one Line per metric.
var ablationSteering = &Grid{
	ID:    "ablation-steering",
	Title: "IOhost worker balance under steering (vRIO, 8 VMs, 4 sidecores)",
	Cell: func(quick bool, _ Point) []Line {
		warm, dur := durations(quick, 4*sim.Millisecond, 40*sim.Millisecond)
		p := params.Default()
		tb := cluster.Build(cluster.Spec{
			Model: core.ModelVRIO, VMsPerHost: 8, IOhostSidecores: 4,
			WithBlock: true, WithThreads: true, Params: &p, Seed: 331,
		})
		ops := tb.RunEach(warm, dur, func(i int) *workload.Results { return tb.StartFilebench(i, 2, 2, 300) }).OpsPerSec
		var minP, maxP uint64
		for i, w := range tb.IOHyp.Workers() {
			n := w.Processed
			if i == 0 || n < minP {
				minP = n
			}
			if n > maxP {
				maxP = n
			}
		}
		imbalance := 0.0
		if maxP > 0 {
			imbalance = 1 - float64(minP)/float64(maxP)
		}
		return []Line{
			{"aggregate ops/sec", Metrics{"value": ops}},
			{"busiest worker msgs", Metrics{"value": float64(maxP)}},
			{"idlest worker msgs", Metrics{"value": float64(minP)}},
			{"imbalance", Metrics{"value": imbalance * 100}},
		}
	},
	Cols: []Col{labelCol("metric"), {"value", func(r Row) string {
		if r.Label() == "imbalance" {
			return f0(r.Get("value")) + "%"
		}
		return f0(r.Get("value"))
	}}},
	Notes: lines("steering holds a device on one worker only while it has pending work, so load still spreads across workers"),
}
