package guestos

// Runnable reports threads that are ready or running.
func (v *VCPU) Runnable() int {
	n := len(v.runq) - v.runqHead
	if v.current != nil {
		n++
	}
	return n
}
