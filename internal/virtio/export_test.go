package virtio

// FreeDescriptors reports how many descriptors are currently free.
func (r *Ring) FreeDescriptors() int { return r.numFree }

// Kicks reports how many times the driver published new buffers.
func (r *Ring) Kicks() uint64 { return r.kicks }

// HasAvail reports whether a PopInto would find work (the poll predicate).
func (r *Ring) HasAvail() bool { return r.lastAvailIdx != r.availIdx() }
