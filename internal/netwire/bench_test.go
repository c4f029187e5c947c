package netwire_test

import (
	"testing"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/netwire"
	"vrio/internal/sim"
	"vrio/internal/transport"
)

// BenchmarkSealDecode measures the per-frame carrier overhead added on top
// of the transport message: preamble write, CRC32 seal, and the receive
// side's validation. This is the only work netwire adds to the §4.2 bytes;
// it must stay allocation-free (TestSealDecodeNoAlloc enforces that).
func BenchmarkSealDecode(b *testing.B) {
	src, dst := ethernet.NewMAC(1), ethernet.NewMAC(2)
	buf := make([]byte, netwire.PreambleSize+1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netwire.SealFrame(buf, netwire.KindData, src, dst)
		if _, _, err := netwire.DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUDPLoopbackRoundtrip measures one 4 KiB block echo end to end
// over real loopback sockets: driver cell, UDP datagrams both ways, server
// endpoint cell. The steady-state number is the real-wire sibling of
// BenchmarkDatapathBlkRoundtrip; allocations settle to ~0/op once pools,
// timer shells, and reader scratch have warmed up.
func BenchmarkUDPLoopbackRoundtrip(b *testing.B) {
	cfg := transport.Config{MaxChunk: 32 << 10, InitialTimeout: 50 * sim.Millisecond}

	sLoop := netwire.NewLoop()
	sMAC := ethernet.NewMAC(2)
	srv, err := netwire.ListenUDP(sLoop, bufpool.New(), sMAC, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var ep *transport.Endpoint
	srv.OnMessage = func(src ethernet.MAC, msg []byte) { _ = ep.Deliver(src, msg) }
	ep = transport.NewEndpoint(sLoop, srv, cfg)
	ep.BlkReq = func(src ethernet.MAC, h transport.Header, req *bufpool.Frame) {
		ep.RespondBlk(src, h, req.B)
		req.Release()
	}
	go sLoop.Run()
	defer sLoop.Close()
	defer srv.Close()

	cLoop := netwire.NewLoop()
	cli, err := netwire.ListenUDP(cLoop, bufpool.New(), ethernet.NewMAC(1), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	cli.AddPeer(sMAC, srv.LocalAddrPort())
	var drv *transport.Driver
	cli.OnMessage = func(_ ethernet.MAC, msg []byte) { _ = drv.Deliver(msg) }
	drv = transport.NewDriver(cLoop, cli, sMAC, cfg)
	go cLoop.Run()
	defer cLoop.Close()
	defer cli.Close()

	req := make([]byte, 4096)
	done := make(chan error, 1)
	complete := func(resp []byte, err error) { done <- err }
	submit := func() { drv.SendBlkQ(2, 1, 0, req, complete) }
	roundtrip := func() {
		cLoop.Post(submit)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		roundtrip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundtrip()
	}
}
