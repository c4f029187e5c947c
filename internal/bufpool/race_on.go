//go:build race

package bufpool

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = true
