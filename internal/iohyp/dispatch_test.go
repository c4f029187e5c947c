package iohyp

import (
	"testing"

	"vrio/internal/blockdev"
	"vrio/internal/ethernet"
	"vrio/internal/nic"
	"vrio/internal/transport"
	"vrio/internal/virtio"
)

// dispatchRig drives the IOhost's three steady-state paths without the
// client driver: a net-tx message forwarded to the uplink, an uplink frame
// delivered to the client as net-rx, and a read on a 4-queue block device
// served and answered. The client's and the external node's receive rings
// are drained into prebound scratch after each op, so what a round
// allocates is the IOhost's own dispatch (plus the NICs and wires).
type dispatchRig struct {
	r       *rig
	fMAC    ethernet.MAC
	tx      []byte // the guest frame a net-tx message carries
	in      ethernet.Frame
	blk     []byte // an encoded one-sector virtio-blk read
	q       uint64
	scratch [][]byte
}

func newDispatchRig(tb testing.TB) *dispatchRig {
	tb.Helper()
	r := newRig(tb, 2, ModePolling)
	d := &dispatchRig{r: r, fMAC: ethernet.NewMAC(50)}
	r.hyp.RegisterNetDevice(r.clientMAC, 2, d.fMAC, nil)
	dev := blockdev.NewDevice(r.eng, blockdev.NewStore(r.p.SectorSize, 64), 100, 4)
	r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, blockdev.NewScheduler(dev, r.p.SectorSize), nil, 4)
	r.clientPort.VF().NotifyRx = nil // drained after each op instead
	tx := ethernet.Frame{Dst: r.extMAC, Src: d.fMAC, EtherType: ethernet.EtherTypePlain, Payload: make([]byte, 64)}
	d.tx = tx.EncodeTo(make([]byte, tx.Len()))
	d.in = ethernet.Frame{Dst: d.fMAC, EtherType: ethernet.EtherTypePlain, Payload: make([]byte, 64)}
	d.blk = virtio.BlkReq{Type: virtio.BlkIn, Sector: 8, Sectors: 1}.Append(nil)
	return d
}

// netTx sends one net-tx message through the IOhost out to the external node.
func (d *dispatchRig) netTx() {
	sendMsg(d.r, d.r.clientMAC, transport.Header{Type: transport.MsgNetTx, DeviceID: 2, ChunkCount: 1}, d.tx)
	d.settle()
}

// netIn sends one frame from the external node through the IOhost to the
// client.
func (d *dispatchRig) netIn() {
	_ = d.r.extVF.SendFrame(d.in)
	d.settle()
}

// blkMQ sends one block read on the next of the device's four queues and
// lets the IOhost serve and answer it.
func (d *dispatchRig) blkMQ() {
	d.q = (d.q + 1) % 4
	id := d.q<<transport.QueueShift | 1
	sendMsg(d.r, d.r.clientMAC, transport.Header{Type: transport.MsgBlkReq, DeviceType: uint8(virtio.DeviceBlk), DeviceID: 1, ReqID: id, OrigID: id, ChunkCount: 1}, d.blk)
	d.settle()
}

// settle runs the engine dry and releases whatever reached the client and
// the external node.
func (d *dispatchRig) settle() {
	d.r.eng.Run()
	for _, vf := range [...]*nic.VF{d.r.clientPort.VF(), d.r.extVF} {
		d.scratch = d.scratch[:0]
		vf.PollInto(&d.scratch, 0)
		for _, fr := range d.scratch {
			vf.Pool().PutRaw(fr)
		}
	}
}

// dispatchPath is one path for the guard and the benchmark, with the IOhost
// counter each op must advance by one.
type dispatchPath struct {
	name, counter string
	op            func()
}

func (d *dispatchRig) paths() []dispatchPath {
	return []dispatchPath{
		{"net-tx", "net_fwd_uplink", d.netTx},
		{"net-in", "net_in", d.netIn},
		{"blk-mq", "blk_reqs", d.blkMQ},
	}
}

// TestIOhostDispatchZeroAlloc: once pools and rings are warm, none of the
// three dispatch paths allocates — no per-message map entries, closures or
// buffers on the steering or reply path.
func TestIOhostDispatchZeroAlloc(t *testing.T) {
	d := newDispatchRig(t)
	for _, p := range d.paths() {
		t.Run(p.name, func(t *testing.T) {
			for i := 0; i < 64; i++ {
				p.op()
			}
			before := d.r.hyp.Counters.Get(p.counter)
			if n := testing.AllocsPerRun(200, p.op); n != 0 {
				t.Errorf("%s: %v allocs/op, want 0", p.name, n)
			}
			if got := d.r.hyp.Counters.Get(p.counter) - before; got != 201 {
				t.Errorf("%s advanced %s by %d, want 201 (one per op)", p.name, p.counter, got)
			}
		})
	}
	if n := d.r.hyp.BlkInFlight(); n != 0 {
		t.Errorf("BlkInFlight = %d after the block ops drained", n)
	}
}

// BenchmarkIOhostDispatch times one message through each IOhost dispatch
// path, end to end through the simulated NICs and wires.
func BenchmarkIOhostDispatch(b *testing.B) {
	d := newDispatchRig(b)
	for _, p := range d.paths() {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < 64; i++ {
				p.op()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.op()
			}
		})
	}
}
