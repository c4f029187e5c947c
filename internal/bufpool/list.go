package bufpool

// List is a free list of recycled *T objects: the datapath's per-request
// state (ops, sites, work items, timers) lives in objects that return to
// their list when the request is done, so the steady state allocates
// nothing. Like Pool, a List belongs to one simulation cell (or one real-wire
// loop) and is not safe for concurrent use.
//
// Each site resets what it recycles itself, on Put or after Get. In race
// builds the list records which items it has handed out, and a Put of an
// item that is not handed out (an item put twice, or never taken) panics
// with the list's name, so a request recycled early fails at its second Put
// rather than by corrupting the request that reused it.
type List[T any] struct {
	name  string
	newFn func() *T
	free  []*T
	// out marks the items handed out by Get (race builds only). Entries are
	// flipped, never deleted, so a steady state does not grow the map.
	out map[*T]bool
}

// NewList returns an empty list named name (for panics). newFn builds a
// fresh item when the list is empty; it is where an item's callbacks are
// bound, once per item.
func NewList[T any](name string, newFn func() *T) *List[T] {
	l := &List[T]{name: name, newFn: newFn}
	if RaceEnabled {
		l.out = make(map[*T]bool)
	}
	return l
}

// Get pops a recycled item, or builds one with newFn.
func (l *List[T]) Get() *T {
	var x *T
	if n := len(l.free); n > 0 {
		x = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		x = l.newFn()
	}
	if RaceEnabled {
		l.out[x] = true
	}
	return x
}

// Put recycles x. The caller must not touch x afterwards: the next Get may
// hand it to a new owner.
func (l *List[T]) Put(x *T) {
	if RaceEnabled {
		if !l.out[x] {
			panic("bufpool: " + l.name + ": item put twice")
		}
		l.out[x] = false
	}
	l.free = append(l.free, x)
}
