package virtio

// FreeDescriptors reports how many descriptors are currently free.
func (r *Ring) FreeDescriptors() int { return r.numFree }

// HasAvail reports whether a PopInto would find work (the poll predicate).
func (r *Ring) HasAvail() bool { return r.lastAvailIdx != r.availIdx() }
