// Shards: conservative parallel simulation over multiple engines.
//
// A ShardGroup partitions one topology across N engines (shards) that run
// concurrently under conservative time synchronization. The group advances
// in lockstep windows of one lookahead bound L: every shard executes its own
// events inside [T, T+L), a barrier drains the cross-shard inboxes, and the
// next window begins. L is the minimum latency of any wire that crosses a
// shard boundary, so a frame sent during a window can never be due inside
// the same window — the classic Chandy–Misra–Bryant safety argument with
// the null messages replaced by a barrier.
//
// Determinism is preserved per seed and independent of the worker count:
//   - Shards share no mutable state. Each has a private engine, and every
//     component built on that engine belongs to it alone.
//   - Cross-shard messages carry (deliverAt, srcShard, srcSeq). At each
//     barrier a shard's inbox is sorted on exactly that key before the
//     messages are scheduled, so the FIFO tie-break seq the destination
//     engine assigns them is a pure function of the messages, never of the
//     wall-clock interleaving that enqueued them.
//   - Within a window, same-timestamp events on different shards cannot
//     observe each other (no shared state, and any message between them is
//     at least L away), so their relative wall-clock order is unobservable.
//
// Consequently a parallel run is byte-identical to the serial run (workers
// = 1) of the same sharded topology — enforced by tests in this package and
// end-to-end by cluster.TestFabricShardedMatchesSerialByteIdentical.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultInboxCap bounds each shard's per-window inbox. A window's worth of
// cross-shard frames is bounded by the work a neighbor can do in L of sim
// time; 1<<16 messages per window is far beyond any modeled fabric and
// exists to turn a runaway model into a loud, deterministic failure instead
// of unbounded memory growth.
const DefaultInboxCap = 1 << 16

// Xmsg is one cross-shard message: fn must run on the destination shard's
// engine at time At. Src/Seq break ties against other messages due at the
// same instant.
type Xmsg struct {
	At  Time
	Src int
	Seq uint64
	Fn  func()
}

// Shard is one engine of a ShardGroup plus its cross-shard inbox.
type Shard struct {
	ID    int
	Eng   *Engine
	group *ShardGroup

	// xseq numbers this shard's outgoing cross-shard messages. It is only
	// touched from the shard's own goroutine (senders post from their own
	// shard), so no atomics are needed.
	xseq uint64

	// inbox collects messages posted by other shards during the current
	// window; the coordinator drains it at the barrier. The mutex guards
	// only the append — drain happens between windows when no shard runs.
	mu    sync.Mutex
	inbox []Xmsg

	// InboxHighWater is the largest single-window inbox this shard has seen.
	InboxHighWater int
	// Received counts cross-shard messages delivered to this shard.
	Received uint64
}

// Post sends fn to run on s's engine at time at, from shard src. It is safe
// to call from src's goroutine while the group is running (that is its
// purpose); the coordinator panics on a lookahead violation — a message due
// before the end of the window it was sent in can never be delivered safely
// and always means a cross-shard wire was built with latency below the
// group's lookahead bound.
func (s *Shard) Post(src *Shard, at Time, fn func()) {
	if at < s.group.windowEnd {
		panic(fmt.Sprintf("sim: lookahead violation: shard %d posted a message to shard %d at %v, inside the current window ending %v (cross-shard latency below the group lookahead %v)",
			src.ID, s.ID, at, s.group.windowEnd, s.group.lookahead))
	}
	src.xseq++
	m := Xmsg{At: at, Src: src.ID, Seq: src.xseq, Fn: fn}
	s.mu.Lock()
	if len(s.inbox) >= s.group.inboxCap {
		s.mu.Unlock()
		panic(fmt.Sprintf("sim: shard %d inbox overflow (cap %d) — the model posts more than a window's worth of cross-shard messages; raise the group's inbox capacity", s.ID, s.group.inboxCap))
	}
	s.inbox = append(s.inbox, m)
	if len(s.inbox) > s.InboxHighWater {
		s.InboxHighWater = len(s.inbox)
	}
	s.mu.Unlock()
}

// drain schedules every inbox message onto the shard's engine in the fixed
// (At, Src, Seq) order. Called only between windows, single-threaded.
func (s *Shard) drain() {
	if len(s.inbox) == 0 {
		return
	}
	msgs := s.inbox
	s.inbox = s.inbox[:0]
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})
	for _, m := range msgs {
		s.Eng.At(m.At, m.Fn)
		s.Received++
	}
}

// ShardGroup coordinates N shards under one lookahead bound.
type ShardGroup struct {
	shards    []*Shard
	lookahead Time
	inboxCap  int

	// cursor is the start of the next unexecuted window; windowEnd its
	// (exclusive) end while a window runs. Both are written only by the
	// coordinator between windows; shards read windowEnd during a window,
	// ordered by the dispatch/completion channels.
	cursor    Time
	windowEnd Time

	// Windows counts synchronization windows executed (barrier crossings).
	Windows uint64

	// interrupted mirrors Engine.interrupted at the group level: a signal
	// handler may ask the coordinator to stop at the next window barrier,
	// where every shard is drained and the merged state is consistent.
	interrupted atomic.Bool

	// worker pool, created lazily on the first parallel run and reused
	// across windows so a window costs two channel hops, not a goroutine
	// spawn per shard.
	dispatch  []chan Time // one per worker: window end (inclusive run deadline)
	completed chan int
}

// NewShardGroup builds an empty group with the given lookahead bound (the
// minimum cross-shard wire latency; must be positive) and per-window inbox
// capacity (0 means DefaultInboxCap).
func NewShardGroup(lookahead Time, inboxCap int) *ShardGroup {
	if lookahead <= 0 {
		panic("sim: non-positive shard lookahead")
	}
	if inboxCap <= 0 {
		inboxCap = DefaultInboxCap
	}
	return &ShardGroup{lookahead: lookahead, inboxCap: inboxCap}
}

// Shards returns the group's shards in ID order.
func (g *ShardGroup) Shards() []*Shard { return g.shards }

// AddShard creates the next shard with a fresh engine. All shards must be
// added before the first Run.
func (g *ShardGroup) AddShard() *Shard {
	if g.dispatch != nil {
		panic("sim: AddShard after the group started running")
	}
	s := &Shard{ID: len(g.shards), Eng: NewEngine(), group: g}
	g.shards = append(g.shards, s)
	return s
}

// Quiescent reports whether no shard has pending events or inbox messages.
func (g *ShardGroup) Quiescent() bool {
	for _, s := range g.shards {
		if s.Eng.Pending() > 0 || len(s.inbox) > 0 {
			return false
		}
	}
	return true
}

// RunUntil advances every shard to deadline (inclusive, like
// Engine.RunUntil) in lookahead-sized windows, with up to workers shards
// executing concurrently per window. workers <= 1 runs the windows
// serially on the calling goroutine; the output is byte-identical either
// way. Successive calls continue from where the previous one stopped.
func (g *ShardGroup) RunUntil(deadline Time, workers int) {
	if workers > len(g.shards) {
		workers = len(g.shards)
	}
	for g.cursor <= deadline {
		if g.interrupted.Load() {
			return
		}
		end := g.cursor + g.lookahead // exclusive window end
		runTo := end - 1              // inclusive engine deadline
		if runTo > deadline || end < g.cursor /* overflow */ {
			end, runTo = deadline+1, deadline
		}
		g.windowEnd = end
		if workers > 1 {
			g.runWindowParallel(runTo, workers)
		} else {
			for _, s := range g.shards {
				s.Eng.RunUntil(runTo)
			}
		}
		g.Windows++
		for _, s := range g.shards {
			s.drain()
		}
		g.cursor = end
		if deadline == MaxTime && g.Quiescent() {
			break
		}
	}
}

// Interrupt requests that RunUntil return at the next window barrier. Safe
// to call from another goroutine (a signal handler); the flag is sticky, so
// a warmup/measure pair both stop.
func (g *ShardGroup) Interrupt() { g.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (g *ShardGroup) Interrupted() bool { return g.interrupted.Load() }

// runWindowParallel executes one window on the persistent worker pool.
// Worker w owns shards w, w+workers, w+2*workers, ... — a static partition,
// so a shard's events always run on one goroutine per window and the
// completion barrier is the only cross-worker synchronization.
func (g *ShardGroup) runWindowParallel(runTo Time, workers int) {
	if len(g.dispatch) != workers {
		g.Close()
		g.dispatch = make([]chan Time, workers)
		g.completed = make(chan int, workers)
		for w := range g.dispatch {
			g.dispatch[w] = make(chan Time)
			go func(w int) {
				for runTo := range g.dispatch[w] {
					for i := w; i < len(g.shards); i += len(g.dispatch) {
						g.shards[i].Eng.RunUntil(runTo)
					}
					g.completed <- w
				}
			}(w)
		}
	}
	for _, ch := range g.dispatch {
		ch <- runTo
	}
	for range g.dispatch {
		<-g.completed
	}
}

// Close stops the group's worker goroutines (idempotent). A group remains
// usable serially after Close.
func (g *ShardGroup) Close() {
	for _, ch := range g.dispatch {
		close(ch)
	}
	g.dispatch = nil
	g.completed = nil
}

// TotalExecutedInGroup sums events executed across the group's engines.
func (g *ShardGroup) TotalExecutedInGroup() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.Eng.Executed()
	}
	return n
}
