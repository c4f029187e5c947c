package core

// SubmitRawBlk posts a pool copy of req, as one buffer, on the block ring
// of an Elvis or baseline guest, reserving room for a reply of `sectors`
// sectors of data.
func SubmitRawBlk(g *Guest, req []byte, sectors int, done func([]byte, error)) {
	op := &blkOp{g: g, req: g.pool.Clone(req), respCap: 1 + sectors*g.p.SectorSize, replyFn: done}
	g.VM.Compute(g.blkStackCost(0), func() { g.blkPost(op) })
}

// SendRawNet posts a pool copy of raw on the TX ring of an Elvis or
// baseline guest and kicks the host.
func SendRawNet(g *Guest, raw []byte) { g.net.ringPost(g.pool.Clone(raw)) }
