package sim

// FIFO is a queue over one slice whose capacity is reused. It backs the
// prebound-event pattern the datapath uses in place of per-item closures: a
// component whose delay is one constant pushes each item and schedules one
// shared callback that pops the oldest. Completion times are then
// nondecreasing in push order and the engine breaks ties FIFO, so the k-th
// callback to run pops the k-th item pushed.
//
// Pops advance a head index; a push into a full slice first slides the live
// entries down, so a queue that never drains stays bounded. The zero value
// is an empty queue.
type FIFO[T any] struct {
	q    []T
	head int
}

// NewFIFO returns an empty queue with room for capacity items, so one
// whose occupancy never exceeds that never grows.
func NewFIFO[T any](capacity int) FIFO[T] {
	return FIFO[T]{q: make([]T, 0, capacity)}
}

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.q) - f.head }

// Push appends x at the tail.
func (f *FIFO[T]) Push(x T) {
	if len(f.q) == cap(f.q) && f.head > 0 {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:]) // drop references for the collector
		f.q = f.q[:n]
		f.head = 0
	}
	f.q = append(f.q, x)
}

// Pop removes and returns the head item. It panics on an empty queue.
func (f *FIFO[T]) Pop() T {
	x := f.q[f.head]
	var zero T
	f.q[f.head] = zero // drop references for the collector
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return x
}
