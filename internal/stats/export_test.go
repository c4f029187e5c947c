package stats

// Min reports the smallest observation, or 0 with none.
func (h *Histogram) Min() int64 { return h.min }

// Variance reports the sample variance, or 0 with fewer than 2 observations.
func (m *Mean) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}
