package stats

// Min reports the smallest observation, or 0 with none.
func (h *Histogram) Min() int64 { return h.min }
