package bufpool

// Refs reports the current reference count (0 after the final Release).
func (f *Frame) Refs() int {
	if f == nil {
		return 0
	}
	return f.refs
}

// FreeSlabs reports pooled slabs across all classes (test visibility).
func (p *Pool) FreeSlabs() int {
	n := 0
	for _, c := range p.classes {
		n += len(c)
	}
	return n
}
