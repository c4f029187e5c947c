package core

// SubmitRawBlk posts req as-is on the block ring of an Elvis or baseline
// guest, reserving room for a reply of `sectors` sectors of data.
func SubmitRawBlk(g *Guest, req []byte, sectors int, done func([]byte, error)) {
	g.blkSubmit(req, sectors, done)
}

// SendRawNet posts raw as-is on the TX ring of an Elvis or baseline guest
// and kicks the host.
func SendRawNet(g *Guest, raw []byte) { g.ringPost(raw, len(raw)) }
