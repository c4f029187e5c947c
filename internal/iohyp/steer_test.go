package iohyp

import (
	"testing"

	"vrio/internal/blockdev"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/transport"
	"vrio/internal/virtio"
)

// steerLoad is the length of each filler item busy() queues on a worker;
// mid is a point inside the first one, where a probe message arrives while
// earlier items of the device are still queued.
const (
	steerLoad = sim.Millisecond
	mid       = steerLoad / 2
)

// sendNetTx hands the IOhost one net-tx message from src for device id, as a
// worker would after reassembly. The inner frame leaves through the uplink.
func sendNetTx(r *rig, src ethernet.MAC, id uint16) {
	inner := ethernet.Frame{Dst: r.extMAC, Src: ethernet.NewMAC(50), EtherType: ethernet.EtherTypePlain, Payload: []byte("steer")}
	frame, _ := inner.Encode(0)
	sendMsg(r, src, transport.Header{Type: transport.MsgNetTx, DeviceID: id, ChunkCount: 1}, frame)
}

// sendMsg encodes one transport message into a pooled buffer and ingests it.
func sendMsg(r *rig, src ethernet.MAC, h transport.Header, payload []byte) {
	msg := r.hyp.bufPool().GetRaw(transport.EncodedSize(len(payload)))
	transport.EncodeInto(msg, h, payload)
	r.hyp.ingressMessage(src, msg, true)
}

// busy queues two long filler items on worker w, so it reports a queue
// length of at least one until the second starts: a fresh least-loaded pick
// avoids it, and only a held device owner steers there.
func busy(r *rig, w int) {
	for i := 0; i < 2; i++ {
		r.hyp.Workers()[w].Core.Exec(cpu.NoOwner, cpu.KindBusy, steerLoad, nil)
	}
}

// running returns the index of the one busy worker.
func running(t *testing.T, r *rig) int {
	t.Helper()
	w := -1
	for i, wk := range r.hyp.Workers() {
		if wk.Core.Busy() {
			if w >= 0 {
				t.Fatalf("workers %d and %d both busy", w, i)
			}
			w = i
		}
	}
	if w < 0 {
		t.Fatal("no worker busy")
	}
	return w
}

// processed snapshots every worker's steered-item count.
func processed(r *rig) []uint64 {
	var out []uint64
	for _, w := range r.hyp.Workers() {
		out = append(out, w.Processed)
	}
	return out
}

// wantRan checks that, since before, exactly want[i] steered items ran on
// worker i.
func wantRan(t *testing.T, r *rig, before []uint64, want ...uint64) {
	t.Helper()
	for i, w := range r.hyp.Workers() {
		if got := w.Processed - before[i]; got != want[i] {
			t.Errorf("worker %d ran %d steered items, want %d (all: before %v, now %v)", i, got, want[i], before, processed(r))
		}
	}
}

// ran builds the per-worker want list with n on worker w and 0 elsewhere.
func ran(r *rig, w int, n uint64) []uint64 {
	out := make([]uint64, len(r.hyp.Workers()))
	out[w] = n
	return out
}

// TestSteeringContract pins §4.1's order-preserving steering as observed
// through which sidecore runs each message: a device keeps its worker while
// it has items pending and gets a fresh least-loaded pick once they drain;
// RebindClient and UnregisterClient keep those rules; multi-queue block
// queues stay pinned to q % workers; and messages for unknown devices or
// from unregistered senders are counted, not lost.
func TestSteeringContract(t *testing.T) {
	fMAC := ethernet.NewMAC(50)
	netRig := func(t *testing.T) *rig {
		r := newRig(t, 2, ModePolling)
		r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
		return r
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"owner held while pending, fresh pick once drained", func(t *testing.T) {
			r := netRig(t)
			before := processed(r)
			sendNetTx(r, r.clientMAC, 2)
			w := running(t, r)
			busy(r, w)
			sendNetTx(r, r.clientMAC, 2) // pending: joins w despite its queue
			r.eng.At(mid, func() { sendNetTx(r, r.clientMAC, 2) })
			r.eng.Run()
			wantRan(t, r, before, ran(r, w, 3)...)

			// Drained: the owner is released, so a loaded w is passed over.
			before = processed(r)
			busy(r, w)
			sendNetTx(r, r.clientMAC, 2)
			r.eng.Run()
			wantRan(t, r, before, ran(r, 1-w, 1)...)
		}},
		{"RebindClient carries owner and pending count", func(t *testing.T) {
			r := netRig(t)
			newMAC := ethernet.NewMAC(2)
			before := processed(r)
			sendNetTx(r, r.clientMAC, 2)
			w := running(t, r)
			busy(r, w)
			sendNetTx(r, r.clientMAC, 2)
			r.hyp.RebindClient(r.clientMAC, newMAC, r.hyp.ports[0])
			r.eng.At(mid, func() { sendNetTx(r, newMAC, 2) })
			r.eng.Run()
			wantRan(t, r, before, ran(r, w, 3)...)
			if got := r.hyp.Counters.Get("net_fwd_uplink"); got != 3 {
				t.Errorf("net_fwd_uplink = %d, want 3", got)
			}
		}},
		{"UnregisterClient with items queued leaves no stuck owner or negative count", func(t *testing.T) {
			r := netRig(t)
			sendNetTx(r, r.clientMAC, 2)
			w := running(t, r)
			busy(r, w)
			sendNetTx(r, r.clientMAC, 2)
			r.hyp.UnregisterClient(r.clientMAC)
			r.eng.Run() // the queued items still execute

			r.hyp.BindClient(r.clientMAC, r.hyp.ports[0])
			r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
			// No stuck owner: a loaded w is passed over.
			before := processed(r)
			busy(r, w)
			sendNetTx(r, r.clientMAC, 2)
			v := 1 - w
			r.eng.Run()
			wantRan(t, r, before, ran(r, v, 1)...)

			// No negative count: with one item still pending the owner holds,
			// although v is then the more loaded worker.
			before = processed(r)
			now := r.eng.Now()
			busy(r, w)
			sendNetTx(r, r.clientMAC, 2) // fresh pick: v, now the idler one
			busy(r, v)
			sendNetTx(r, r.clientMAC, 2) // queued behind v's filler
			r.eng.At(now+mid, func() { sendNetTx(r, r.clientMAC, 2) })
			r.eng.Run()
			wantRan(t, r, before, ran(r, v, 3)...)
		}},
		{"multi-queue queues pinned to q % workers", func(t *testing.T) {
			r := newRig(t, 3, ModePolling)
			dev := blockdev.NewDevice(r.eng, blockdev.NewStore(r.p.SectorSize, 1000), 100, 8)
			r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, blockdev.NewScheduler(dev, r.p.SectorSize), nil, 4)
			for q := 0; q < 4; q++ {
				if got := r.hyp.BlkQueueWorker(r.clientMAC, 1, q); got != q%3 {
					t.Errorf("queue %d pinned to worker %d, want %d", q, got, q%3)
				}
				// The pinned worker is the most loaded one; the request still
				// lands there.
				before := processed(r)
				busy(r, q%3)
				req := virtio.BlkReq{Type: virtio.BlkIn, Sector: uint64(q), Sectors: 1}.Append(nil)
				ok := false
				r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, uint8(q), req, func(resp []byte, err error) {
					ok = err == nil && len(resp) > 0 && resp[0] == virtio.BlkOK
				})
				r.eng.Run()
				if !ok {
					t.Errorf("queue %d read failed", q)
				}
				wantRan(t, r, before, ran(r, q%3, 1)...)
			}
			if n := r.hyp.BlkInFlight(); n != 0 {
				t.Errorf("BlkInFlight = %d after drain", n)
			}
		}},
		{"unknown devices and unregistered senders are counted", func(t *testing.T) {
			r := netRig(t)
			dev := blockdev.NewDevice(r.eng, blockdev.NewStore(r.p.SectorSize, 1000), 100, 1)
			r.hyp.RegisterBlkDevice(r.clientMAC, 1, dev, nil)
			stranger := ethernet.NewMAC(77)
			req := virtio.BlkReq{Type: virtio.BlkIn, Sector: 0, Sectors: 1}.Append(nil)
			blk := func(id uint16) transport.Header {
				return transport.Header{Type: transport.MsgBlkReq, DeviceID: id, ReqID: 1, OrigID: 1, ChunkCount: 1}
			}
			status := byte(0xFF)
			r.driver.SendBlk(uint8(virtio.DeviceBlk), 9, req, func(resp []byte, err error) {
				if err == nil && len(resp) == 1 {
					status = resp[0]
				}
			})
			r.eng.Run()
			if status != virtio.BlkUnsupp {
				t.Errorf("unknown device answered %d, want BlkUnsupp", status)
			}
			sendMsg(r, stranger, blk(1), req) // device 1 exists, but not for this sender
			sendMsg(r, stranger, blk(1), req)
			r.eng.Run()
			if got := r.hyp.Counters.Get("unknown_dev"); got != 3 {
				t.Errorf("unknown_dev = %d, want 3", got)
			}
			sendMsg(r, stranger, transport.Header{Type: transport.MsgNetTx, DeviceID: 2, ChunkCount: 1}, []byte("runt"))
			sendMsg(r, r.clientMAC, transport.Header{Type: transport.MsgNetTx, DeviceID: 2, ChunkCount: 1}, []byte("runt"))
			sendMsg(r, stranger, transport.Header{Type: transport.MsgNetRx, ChunkCount: 1}, nil)
			r.eng.Run()
			if got := r.hyp.Counters.Get("bad_msgs"); got != 3 {
				t.Errorf("bad_msgs = %d, want 3", got)
			}
			if got := r.hyp.Counters.Get("msgs"); got != 6 {
				t.Errorf("msgs = %d, want 6", got)
			}
			if r.hyp.Counters.Get("blk_reqs") != 0 || r.hyp.BlkInFlight() != 0 {
				t.Errorf("blk_reqs = %d, in flight %d: an unknown request reached a backend",
					r.hyp.Counters.Get("blk_reqs"), r.hyp.BlkInFlight())
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
