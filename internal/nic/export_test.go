package nic

// LinkUp reports whether the port has carrier.
func (v *VF) LinkUp() bool { return !v.linkDown }
