package workload

import (
	"vrio/internal/sim"
	"vrio/internal/stats"
)

// WriteFunc is a block write target: it writes data at sector through
// submission queue q and calls done once, when the write completes. A
// guest's paravirtual device is one ((*core.Guest).WriteBlockQ); a
// distributed volume, a closure over (*core.VolumeRouter).Write, is another.
// data must be copied before WriteFunc returns: MQBlock reuses it.
type WriteFunc func(q uint8, sector uint64, data []byte, done func(error))

// Default placement: each queue strides through its own region of
// placeRegion sectors, and every placeHot-th request of a queue goes to the
// region shared by all queues, so a range-conflict scheduler has real
// cross-queue conflicts to arbitrate.
const (
	placeRegion = 1024
	placeStride = 17
	placeHot    = 16
)

// MQBlock is the closed-loop block write load: NQ submission queues with
// QD requests in flight per queue against one write target. Every
// completion, an error one included, immediately reissues on the same queue,
// so the offered depth stays at NQ×QD until Stop. Every request is ledgered
// by (queue, sequence), and Ledger is the exactly-once audit the fault and
// scaling experiments assert on.
type MQBlock struct {
	eng    *sim.Engine
	write  WriteFunc
	queues int
	depth  int
	buf    []byte
	stop   bool
	counts [][]int // per queue, per sequence: completions observed
	errs   uint64

	// Place, when set, picks the sector of queue q's seq-th request
	// instead of the default per-queue regions.
	Place func(q, seq int) uint64
	// Latency, when set, records each completion's latency in whole
	// microseconds, errors included. It may be swapped mid-run.
	Latency *stats.Histogram
}

// NewMQBlock builds the load on write: queues×depth outstanding writes of
// size bytes each. It does not issue anything until Start.
func NewMQBlock(eng *sim.Engine, write WriteFunc, queues, depth, size int) *MQBlock {
	if queues < 1 || depth < 1 || size < 1 {
		panic("workload: MQBlock needs queues, depth, size >= 1")
	}
	m := &MQBlock{
		eng:    eng,
		write:  write,
		queues: queues,
		depth:  depth,
		buf:    make([]byte, size),
		counts: make([][]int, queues),
	}
	for i := range m.buf {
		m.buf[i] = byte(i)
	}
	return m
}

// Start opens the closed loops: depth concurrent chains per queue.
func (m *MQBlock) Start() {
	for q := 0; q < m.queues; q++ {
		for d := 0; d < m.depth; d++ {
			m.issue(q)
		}
	}
}

// Stop closes the loops; in-flight requests still complete (and are
// ledgered) but nothing new is issued.
func (m *MQBlock) Stop() { m.stop = true }

// sector places queue q's seq-th request.
func (m *MQBlock) sector(q, seq int) uint64 {
	switch {
	case m.Place != nil:
		return m.Place(q, seq)
	case seq%placeHot == 0:
		return uint64(m.queues) * placeRegion
	}
	return uint64(q)*placeRegion + uint64(seq*placeStride)%placeRegion
}

// issue sends one write on queue q and reissues from its completion.
func (m *MQBlock) issue(q int) {
	if m.stop {
		return
	}
	seq := len(m.counts[q])
	m.counts[q] = append(m.counts[q], 0)
	start := m.eng.Now()
	m.write(uint8(q), m.sector(q, seq), m.buf, func(err error) {
		m.counts[q][seq]++
		if err != nil {
			m.errs++
		}
		if m.Latency != nil {
			m.Latency.Record(int64((m.eng.Now() - start) / sim.Microsecond))
		}
		m.issue(q)
	})
}

// Ledger is an MQBlock's exactly-once audit. After a drain that outlasts
// every retransmission budget, exactly-once delivery means Dup and Lost are
// both zero.
type Ledger struct {
	Issued    uint64 // requests sent
	Completed uint64 // requests whose completion ran at least once
	Dup       uint64 // completions beyond a request's first
	Lost      uint64 // requests that never completed
	Errs      uint64 // completions that reported an error
}

// Ledger audits the per-request completion counts so far.
func (m *MQBlock) Ledger() Ledger {
	l := Ledger{Errs: m.errs}
	for _, qc := range m.counts {
		l.Issued += uint64(len(qc))
		for _, n := range qc {
			switch {
			case n == 0:
				l.Lost++
			case n > 1:
				l.Dup += uint64(n - 1)
			}
		}
	}
	l.Completed = l.Issued - l.Lost
	return l
}
