package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/netwire"
	"vrio/internal/sim"
	"vrio/internal/trace"
	"vrio/internal/transport"
)

// runServe runs the IOhost process: one netwire loop, one carrier serving
// every client by MAC, one transport.Endpoint. Block requests and net
// frames are echoed back prefixed with their SHA-256 digest, so the
// driving side can verify every byte that crossed the wire. It serves
// until stop closes, then drains and returns the exit code.
func runServe(cfg *config, stop <-chan struct{}) int {
	loop := netwire.NewLoop()
	pool := bufpool.New()
	mac := serverMAC()

	c, err := netwire.ListenUDP(loop, pool, mac, cfg.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vrio-loadgen:", err)
		return 1
	}
	if cfg.loss > 0 || cfg.corrupt > 0 {
		c.SetFault(netwire.LossFault(cfg.loss, cfg.corrupt, cfg.seed))
	}
	ep := transport.NewEndpoint(loop, c, transportConfig(cfg))
	c.OnMessage = func(src ethernet.MAC, msg []byte) { _ = ep.Deliver(src, msg) }
	c.OnHello = func(src ethernet.MAC) { fmt.Printf("hello from %v\n", src) }
	ep.BlkReq = func(src ethernet.MAC, h transport.Header, req *bufpool.Frame) {
		sum := sha256.Sum256(req.B)
		resp := pool.GetRaw(sha256.Size + len(req.B))
		copy(resp, sum[:])
		copy(resp[sha256.Size:], req.B)
		ep.RespondBlk(src, h, resp)
		pool.PutRaw(resp)
		req.Release()
	}
	ep.NetTx = func(src ethernet.MAC, deviceID uint16, frame []byte) {
		sum := sha256.Sum256(frame)
		resp := pool.GetRaw(sha256.Size + len(frame))
		copy(resp, sum[:])
		copy(resp[sha256.Size:], frame)
		ep.SendNetRx(src, deviceID, resp)
		pool.PutRaw(resp)
	}

	var ts *trace.Timeseries
	if cfg.metricsPath != "" {
		reg := trace.NewRegistry()
		for _, name := range []string{"blk_req", "net_tx", "bad_msgs"} {
			name := name
			reg.Gauge("loadgen/server", name, func() float64 { return float64(ep.Counters.Get(name)) })
		}
		reg.Gauge("loadgen/server", "delivered", func() float64 { return float64(c.Delivered) })
		reg.Gauge("loadgen/server", "drops", func() float64 { return float64(c.Drops.Total()) })
		reg.Gauge("loadgen/server", "pool_misses", func() float64 { return float64(pool.Stats.Misses) })
		ts = reg.NewTimeseries()
		var sample func()
		sample = func() {
			ts.Sample(loop.Now())
			loop.AfterFunc(sim.Time(cfg.sampleEvery), sample)
		}
		loop.Post(sample)
	}

	go func() {
		<-stop
		loop.Post(func() {
			if ts != nil {
				ts.Sample(loop.Now())
			}
			loop.Close()
		})
		// If the loop is already gone, fall through: Run has returned.
	}()

	fmt.Printf("vrio-loadgen: serving %s on %s as %v (SIGINT for summary)\n",
		cfg.carrier, cfg.addr, mac)
	t0 := time.Now()
	loop.Run()
	elapsed := time.Since(t0)
	c.Close()

	if cfg.metricsPath != "" {
		if err := writeMetrics(cfg.metricsPath, ts); err != nil {
			fmt.Fprintln(os.Stderr, "vrio-loadgen:", err)
		}
	}
	fmt.Printf("\nserved %.1fs: %d blk reqs, %d net frames, %d bad msgs, %d delivered, drops %v, pool misses %d\n",
		elapsed.Seconds(), ep.Counters.Get("blk_req"), ep.Counters.Get("net_tx"),
		ep.Counters.Get("bad_msgs"), c.Delivered, c.Drops, pool.Stats.Misses)
	return 0
}

// writeMetrics flushes one or more timeseries to a JSONL file.
func writeMetrics(path string, tss ...*trace.Timeseries) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, ts := range tss {
		if ts == nil {
			continue
		}
		if err := ts.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
