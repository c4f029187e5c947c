package bufpool

// FreeSlabs reports pooled slabs across all classes (test visibility).
func (p *Pool) FreeSlabs() int {
	n := 0
	for _, c := range p.classes {
		n += len(c)
	}
	return n
}
