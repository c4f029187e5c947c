//go:build !race

package cluster

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation guards skip under it, since it allocates on its own.
const raceEnabled = false
