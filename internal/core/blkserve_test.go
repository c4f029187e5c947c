package core_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vrio/internal/blockdev"
	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/interpose"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// replicaID is the device id of the volume replica the vrio site registers
// beside the guest's plain block device.
const replicaID = 99

// blkSite drives one model's block back end with raw virtio-blk requests:
// the ring of an Elvis or baseline guest, or the IOhost through a vrio
// client's transport.
type blkSite struct {
	model core.ModelName
	tb    *cluster.Testbed
	// plain is the guest's block device; replica (vrio only) is a volume
	// replica with 16-sector extents.
	plain, replica *blockdev.Device
}

func newBlkSite(m core.ModelName) *blkSite {
	tb := cluster.Build(cluster.Spec{
		Model: m, VMsPerHost: 1, WithBlock: true, NoJitter: true, Seed: 7,
		BlkChain: func(host, vm int) *interpose.Chain {
			return interpose.NewChain(interpose.NewFirewall(0, []byte("DROP")))
		},
	})
	s := &blkSite{model: m, tb: tb, plain: tb.BlockDevices[0]}
	if m == core.ModelVRIO {
		spec := blockdev.VolumeSpec{Stripes: 1, Replicas: 1, WriteQuorum: 1, ExtentSectors: 16, CapacitySectors: 64, Queues: 1}
		s.replica = blockdev.NewDevice(tb.Eng, blockdev.NewStore(tb.P.SectorSize, spec.CapacitySectors), tb.P.RamdiskLatency, 1)
		s.replica.AttachReplica(blockdev.NewReplicaState(spec))
		tb.IOHyp.RegisterVolReplica(tb.VRIOClients[0].TransportMAC(), replicaID, s.replica, nil, 1)
	}
	return s
}

// do sends req (to the replica when toReplica), reserving a reply of
// `sectors` sectors of data, and returns the reply.
func (s *blkSite) do(t *testing.T, toReplica bool, req []byte, sectors int) []byte {
	t.Helper()
	var got []byte
	done := func(resp []byte, err error) {
		if err != nil {
			t.Errorf("%s: transport error %v", s.model, err)
		}
		got = append([]byte{}, resp...)
	}
	if c := s.tb.VRIOClients; c != nil {
		id := c[0].BlkDeviceID()
		if toReplica {
			id = replicaID
		}
		c[0].Driver.SendBlkQ(uint8(virtio.DeviceBlk), id, 0, req, done)
	} else {
		core.SubmitRawBlk(s.tb.Guests[0], req, sectors, func(status, data []byte, err error) {
			done(append(bytes.Clone(status), data...), err)
		})
	}
	s.tb.Eng.RunUntil(s.tb.Eng.Now() + 10*sim.Millisecond)
	if got == nil {
		t.Fatalf("%s: no reply", s.model)
	}
	return got
}

// blkCounts are the IOhost's block counters.
type blkCounts struct{ reqs, bad, drops, copied uint64 }

func (s *blkSite) counts() blkCounts {
	c := &s.tb.IOHyp.Counters
	return blkCounts{c.Get("blk_reqs"), c.Get("bad_msgs"), c.Get("interpose_drops"), c.Get("copy_bytes")}
}

func reply(status byte, data ...[]byte) []byte {
	return append([]byte{status}, bytes.Join(data, nil)...)
}

func le64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// TestBlkServeAllSites runs every kind of block request through the shared
// back end at each of its three sites and checks the reply; at the IOhost it
// also checks the block counters. The cases run in order on one testbed per
// site, so later cases see earlier writes.
func TestBlkServeAllSites(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 4096)
	dropped := append([]byte("DROP"), make([]byte, 508)...)
	cases := []struct {
		name    string
		replica bool // vrio only: sent to the volume replica
		setup   func(s *blkSite)
		req     virtio.BlkReq
		want    []byte
		counts  blkCounts // IOhost counter deltas
	}{
		{name: "write", req: virtio.BlkReq{Type: virtio.BlkOut, Sector: 8, Data: data},
			want: reply(virtio.BlkOK), counts: blkCounts{reqs: 1, copied: 512}},
		{name: "read", req: virtio.BlkReq{Type: virtio.BlkIn, Sector: 8, Sectors: 8},
			want: reply(virtio.BlkOK, data), counts: blkCounts{reqs: 1, copied: 4096}},
		{name: "flush", req: virtio.BlkReq{Type: virtio.BlkFlush},
			want: reply(virtio.BlkOK), counts: blkCounts{reqs: 1}},
		{name: "vol-write", replica: true,
			req:  virtio.BlkReq{Type: virtio.BlkVolOut, Sector: 0, Extent: 0, Version: 1, Data: data},
			want: reply(virtio.BlkOK), counts: blkCounts{reqs: 1, copied: 512}},
		{name: "vol-read", replica: true,
			req:  virtio.BlkReq{Type: virtio.BlkVolIn, Sector: 0, Sectors: 8, Extent: 0, Version: 1},
			want: reply(virtio.BlkOK, le64(1), data), counts: blkCounts{reqs: 1, copied: 4096}},
		{name: "stale vol-write", replica: true,
			req:  virtio.BlkReq{Type: virtio.BlkVolOut, Sector: 0, Extent: 0, Version: 1, Data: data},
			want: reply(virtio.BlkStale), counts: blkCounts{reqs: 1, copied: 512}},
		{name: "gap vol-write", replica: true,
			req:  virtio.BlkReq{Type: virtio.BlkVolOut, Sector: 0, Extent: 0, Version: 3, Data: data},
			want: reply(virtio.BlkGap), counts: blkCounts{reqs: 1, copied: 512}},
		{name: "stale vol-read", replica: true,
			req:  virtio.BlkReq{Type: virtio.BlkVolIn, Sector: 0, Sectors: 8, Extent: 0, Version: 2},
			want: reply(virtio.BlkStale), counts: blkCounts{reqs: 1}},
		{name: "vol-write on a plain device",
			req:  virtio.BlkReq{Type: virtio.BlkVolOut, Sector: 0, Extent: 0, Version: 1, Data: data},
			want: reply(virtio.BlkUnsupp), counts: blkCounts{reqs: 1}},
		{name: "vol-read on a plain device",
			req:  virtio.BlkReq{Type: virtio.BlkVolIn, Sector: 0, Sectors: 8, Extent: 0, Version: 1},
			want: reply(virtio.BlkUnsupp), counts: blkCounts{reqs: 1}},
		{name: "unknown type", req: virtio.BlkReq{Type: 7, Sector: 8},
			want: reply(virtio.BlkUnsupp), counts: blkCounts{reqs: 1}},
		{name: "write refused by the chain", req: virtio.BlkReq{Type: virtio.BlkOut, Sector: 64, Data: dropped},
			want: reply(virtio.BlkIOErr), counts: blkCounts{reqs: 1, drops: 1}},
		{name: "read refused by the chain",
			setup: func(s *blkSite) {
				if err := s.plain.Store().Write(64, dropped); err != nil {
					t.Fatal(err)
				}
			},
			req:  virtio.BlkReq{Type: virtio.BlkIn, Sector: 64, Sectors: 1},
			want: reply(virtio.BlkIOErr), counts: blkCounts{reqs: 1}},
		{name: "failed write", setup: func(s *blkSite) { s.plain.FailNext = true },
			req:  virtio.BlkReq{Type: virtio.BlkOut, Sector: 8, Data: data},
			want: reply(virtio.BlkIOErr), counts: blkCounts{reqs: 1, copied: 512}},
		{name: "failed read", setup: func(s *blkSite) { s.plain.FailNext = true },
			req:  virtio.BlkReq{Type: virtio.BlkIn, Sector: 8, Sectors: 8},
			want: reply(virtio.BlkIOErr), counts: blkCounts{reqs: 1}},
	}
	for _, m := range []core.ModelName{core.ModelVRIO, core.ModelElvis, core.ModelBaseline} {
		s := newBlkSite(m)
		for _, c := range cases {
			if c.replica && s.replica == nil {
				continue // only the IOhost serves volume replicas
			}
			if c.setup != nil {
				c.setup(s)
			}
			var before blkCounts
			if s.tb.IOHyp != nil {
				before = s.counts()
			}
			got := s.do(t, c.replica, c.req.Append(nil), c.req.Sectors)
			if !bytes.Equal(got, c.want) {
				t.Errorf("%s %s: reply %x (%d bytes), want %x (%d bytes)", m, c.name, got[:min(len(got), 9)], len(got), c.want[:min(len(c.want), 9)], len(c.want))
			}
			if s.tb.IOHyp == nil {
				continue
			}
			after := s.counts()
			delta := blkCounts{after.reqs - before.reqs, after.bad - before.bad, after.drops - before.drops, after.copied - before.copied}
			if delta != c.counts {
				t.Errorf("%s %s: counter deltas %+v, want %+v", m, c.name, delta, c.counts)
			}
		}
	}
}

// TestRingBlkReadSlabs pins the buffers a 4 KiB read takes on the two ring
// models, laid out as virtio-blk lays them out: the host copies the data
// once, from the store into a slab of exactly 4 KiB, and hands it and the
// status byte to descriptors of their own, so the guest reads the status
// from a one-byte buffer. Besides the request header, the read takes no
// pool loan: no 8 KiB slab holds the status and the data together.
func TestRingBlkReadSlabs(t *testing.T) {
	data := bytes.Repeat([]byte{0x5A}, 4096)
	req := virtio.BlkReq{Type: virtio.BlkIn, Sector: 8, Sectors: 8}.Append(nil)
	for _, m := range []core.ModelName{core.ModelElvis, core.ModelBaseline} {
		s := newBlkSite(m)
		if err := s.plain.Store().Write(8, data); err != nil {
			t.Fatal(err)
		}
		g := s.tb.Guests[0]
		pool := core.GuestPool(g)
		for round := range 2 { // the first read warms the pool's classes
			gets, done := pool.Stats.Gets, false
			core.SubmitRawBlk(g, req, 8, func(status, got []byte, err error) {
				done = true
				if err != nil || len(status) != 1 || cap(status) != 1 || status[0] != virtio.BlkOK {
					t.Errorf("%s: status %x (capacity %d), %v; want BlkOK in a buffer of its own", m, status, cap(status), err)
				}
				if !bytes.Equal(got, data) || cap(got) != len(data) {
					t.Errorf("%s: data of %d bytes in a %d-byte slab, want the 4 KiB written in a 4 KiB slab", m, len(got), cap(got))
				}
			})
			s.tb.Eng.RunUntil(s.tb.Eng.Now() + 10*sim.Millisecond)
			if !done {
				t.Fatalf("%s: no reply", m)
			}
			if n := pool.Stats.Gets - gets; n != 2 {
				t.Errorf("%s round %d: the read took %d pool loans, want 2 (the request header and the data)", m, round, n)
			}
		}
	}
}

// TestMalformedBlkReqIsIOErr puts truncated requests on every site: each
// must complete with BlkIOErr, and the IOhost must count a bad message.
func TestMalformedBlkReqIsIOErr(t *testing.T) {
	readHdr := virtio.BlkReq{Type: virtio.BlkIn, Sector: 8, Sectors: 8}.Append(nil)
	volRead := virtio.BlkReq{Type: virtio.BlkVolIn, Sector: 8, Sectors: 8, Extent: 0, Version: 1}.Append(nil)
	for _, m := range []core.ModelName{core.ModelVRIO, core.ModelElvis, core.ModelBaseline} {
		s := newBlkSite(m)
		for _, c := range []struct {
			name    string
			replica bool
			req     []byte
		}{
			{"header-only read", false, readHdr[:virtio.BlkHdrSize]},
			{"truncated vol header", false, volRead[:virtio.BlkHdrSize+4]},
			{"truncated vol header to a replica", true, volRead[:virtio.BlkHdrSize+4]},
			{"short header", false, readHdr[:5]},
		} {
			if c.replica && s.replica == nil {
				continue
			}
			var bad uint64
			if s.tb.IOHyp != nil {
				bad = s.tb.IOHyp.Counters.Get("bad_msgs")
			}
			if got := s.do(t, c.replica, c.req, 8); !bytes.Equal(got, reply(virtio.BlkIOErr)) {
				t.Errorf("%s %s: reply %x, want BlkIOErr", m, c.name, got)
			}
			if s.tb.IOHyp != nil && s.tb.IOHyp.Counters.Get("bad_msgs") != bad+1 {
				t.Errorf("%s %s: bad_msgs did not count the request", m, c.name)
			}
		}
	}
}
