package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"vrio/internal/blockdev"
	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/transport"
	"vrio/internal/virtio"
)

// volRig wires a VolumeRouter with R=1 over a transport rig whose endpoint
// acks every replica write (the IOhost + device behavior is covered by the
// iohyp and cluster tests; here we exercise the router itself over the real
// transport datapath).
func volRig() (*transport.Rig, *VolumeRouter) {
	r := transport.NewRig()
	okResp := []byte{virtio.BlkOK}
	r.Endpoint.BlkReq = func(src ethernet.MAC, h transport.Header, req *bufpool.Frame) {
		r.Endpoint.RespondBlk(src, h, okResp)
		req.Release()
	}
	spec := blockdev.VolumeSpec{
		Stripes: 1, Replicas: 1, WriteQuorum: 1,
		ExtentSectors: 128, CapacitySectors: 4096, Queues: 4,
	}
	vr := NewVolumeRouter(spec, 7, []*transport.Driver{r.Driver})
	return r, vr
}

func TestVolumeRouterWriteCommits(t *testing.T) {
	r, vr := volRig()
	data := make([]byte, 4096)
	completions := 0
	for i := 0; i < 10; i++ {
		vr.Write(uint64(i*8), data, func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			completions++
		})
		r.Step()
	}
	if completions != 10 {
		t.Fatalf("completions = %d, want 10", completions)
	}
	// All ten writes hit extent 0 (sectors 0..72 < 128): committed tracks
	// the version allocator.
	if got := vr.Committed(0); got != 10 {
		t.Fatalf("Committed(0) = %d, want 10", got)
	}
	if got := vr.Counters.Get("vol_writes"); got != 10 {
		t.Fatalf("vol_writes = %d, want 10", got)
	}
}

func TestVolumeRouterQuorumLossFailsCleanly(t *testing.T) {
	r, vr := volRig()
	vr.OnHostDeath(0)
	var got error
	fired := false
	vr.Write(0, make([]byte, 512), func(err error) { got = err; fired = true })
	// The failure must be synchronous — no transport round trip, no hang.
	if !fired {
		t.Fatal("quorum-loss write did not complete immediately")
	}
	if !errors.Is(got, blockdev.ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", got)
	}
	fired = false
	vr.Read(0, 1, func(_ []byte, err error) {
		if !errors.Is(err, blockdev.ErrNoReplica) {
			t.Errorf("read err = %v, want ErrNoReplica", err)
		}
		fired = true
	})
	if !fired {
		t.Fatal("no-replica read did not complete immediately")
	}
	r.Step() // nothing should be in flight
	if n := r.Driver.InFlightBlk(); n != 0 {
		t.Fatalf("in-flight after quorum loss: %d, want 0", n)
	}
}

func TestVolumeRouterReadRoundtrip(t *testing.T) {
	r := transport.NewRig()
	// Endpoint serves reads with a recognizable payload and acks writes.
	r.Endpoint.BlkReq = func(src ethernet.MAC, h transport.Header, req *bufpool.Frame) {
		br, err := virtio.DecodeBlkReq(req.B)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		switch br.Type {
		case virtio.BlkVolOut:
			r.Endpoint.RespondBlk(src, h, []byte{virtio.BlkOK})
		case virtio.BlkVolIn:
			if br.Extent != 0 {
				t.Errorf("extent = %d, want 0", br.Extent)
			}
			n := br.Sectors
			// Successful vol-reads carry the serving replica's extent
			// version between the status byte and the data.
			out := make([]byte, 1+virtio.VolReadVerSize+n*512)
			out[0] = virtio.BlkOK
			binary.LittleEndian.PutUint64(out[1:], br.Version)
			for i := 1 + virtio.VolReadVerSize; i < len(out); i++ {
				out[i] = 0x5A
			}
			r.Endpoint.RespondBlk(src, h, out)
		default:
			t.Errorf("unexpected blk type %d", br.Type)
		}
		req.Release()
	}
	spec := blockdev.VolumeSpec{
		Stripes: 1, Replicas: 1, WriteQuorum: 1,
		ExtentSectors: 128, CapacitySectors: 4096, Queues: 1,
	}
	vr := NewVolumeRouter(spec, 7, []*transport.Driver{r.Driver})
	got := 0
	vr.Read(8, 2, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = len(data)
		if data[0] != 0x5A {
			t.Fatalf("payload byte = %#x, want 0x5A", data[0])
		}
	})
	r.Step()
	if got != 2*512 {
		t.Fatalf("read returned %d bytes, want %d", got, 2*512)
	}
	if n := vr.Counters.Get("vol_reads"); n != 1 {
		t.Fatalf("vol_reads = %d, want 1", n)
	}
}

// TestVolumeWriteQuorumZeroAlloc is the allocation guard for the R=1 write
// fast path: after warmup, a full quorum write — version allocation, header
// encode, transport round trip, ack counting, commit — performs zero heap
// allocations.
func TestVolumeWriteQuorumZeroAlloc(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race detector instruments allocations; guard runs in the non-race pass")
	}
	r, vr := volRig()
	data := make([]byte, 4096)
	done := 0
	cb := func(err error) {
		if err != nil {
			t.Errorf("vol write: %v", err)
		}
		done++
	}
	send := func() {
		vr.Write(0, data, cb)
		r.Step()
	}
	for i := 0; i < 100; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("vol write fast path allocates %.1f allocs/op, want 0 — "+
			"a write op, request buffer, or callback is escaping to the heap", allocs)
	}
	if done == 0 {
		t.Fatal("no completions observed")
	}
}

// BenchmarkVolumeWriteQuorum measures the R=1 quorum write round trip over
// the rig datapath (`make bench-guards`).
func BenchmarkVolumeWriteQuorum(b *testing.B) {
	r, vr := volRig()
	data := make([]byte, 4096)
	cb := func(err error) {
		if err != nil {
			b.Fatalf("vol write: %v", err)
		}
	}
	for i := 0; i < 100; i++ {
		vr.Write(0, data, cb)
		r.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vr.Write(0, data, cb)
		r.Step()
	}
}
