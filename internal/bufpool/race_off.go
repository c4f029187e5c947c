//go:build !race

package bufpool

// RaceEnabled reports whether the race detector is compiled in. Under it,
// List and the raw slabs check their ownership contracts (see List.Put,
// PutRaw and GetRaw), and the zero-allocation guards skip, since the
// detector allocates on its own. Normal builds compile the checks away.
const RaceEnabled = false
