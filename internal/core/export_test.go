package core

// SubmitRawBlk posts req as-is on the block ring of an Elvis or baseline
// guest, reserving room for a reply of `sectors` sectors of data.
func SubmitRawBlk(g *Guest, req []byte, sectors int, done func([]byte, error)) {
	op := &blkOp{g: g, req: req, respCap: 1 + sectors*g.p.SectorSize, replyFn: done}
	g.VM.Compute(g.blkStackCost(0), func() { g.blkPost(op) })
}

// SendRawNet posts raw as-is on the TX ring of an Elvis or baseline guest
// and kicks the host.
func SendRawNet(g *Guest, raw []byte) { g.net.ringPost(raw) }
