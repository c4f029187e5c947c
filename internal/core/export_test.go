package core

import "vrio/internal/bufpool"

// SubmitRawBlk posts a pool copy of req, as one buffer, on the block ring
// of an Elvis or baseline guest, reserving a descriptor for `sectors`
// sectors of data (none when 0) and one for the status. done gets the
// status and the data as the ring handed them over, valid during the call.
func SubmitRawBlk(g *Guest, req []byte, sectors int, done func(status, data []byte, err error)) {
	op := &blkOp{g: g, req: g.pool.Clone(req), readLen: sectors * g.p.SectorSize, replyFn: done}
	g.VM.Compute(g.blkStackCost(0), func() { g.blkPost(op) })
}

// GuestPool returns the buffer pool the guest's rings draw from.
func GuestPool(g *Guest) *bufpool.Pool { return g.pool }

// SendRawNet posts a pool copy of raw on the TX ring of an Elvis or
// baseline guest and kicks the host.
func SendRawNet(g *Guest, raw []byte) { g.net.ringPost(g.pool.Clone(raw)) }

// HasBlock reports whether a block device is attached.
func (g *Guest) HasBlock() bool { return g.blkPost != nil }
