package sim

import (
	"fmt"
	"testing"
)

// pingPong builds a group of n shards where every shard sends a message to
// the next (ring) with latency lat, each delivery appending to a shared-by
// -shard log and re-sending, seeded by one initial event per shard.
// Returns the per-shard logs after running to deadline.
func pingPong(t *testing.T, n int, lat, deadline Time, workers int) [][]string {
	t.Helper()
	g := NewShardGroup(lat, 0)
	shards := make([]*Shard, n)
	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		shards[i] = g.AddShard()
	}
	var send func(from, to int, hop int)
	send = func(from, to, hop int) {
		src, dst := shards[from], shards[to]
		at := src.Eng.Now() + lat
		dst.Post(src, at, func() {
			logs[to] = append(logs[to], fmt.Sprintf("t=%d hop=%d from=%d", dst.Eng.Now(), hop, from))
			if hop < 64 {
				send(to, (to+1)%n, hop+1)
			}
		})
	}
	for i := 0; i < n; i++ {
		i := i
		// Two seeds per shard at the same instant exercise tie-breaking.
		shards[i].Eng.At(0, func() { send(i, (i+1)%n, 0) })
		shards[i].Eng.At(0, func() { send(i, (i+n-1)%n, 0) })
	}
	g.RunUntil(deadline, workers)
	g.Close()
	return logs
}

// TestShardGroupDeterministicAcrossWorkers is the core contract: the same
// sharded model produces identical event logs no matter how many OS workers
// execute the windows.
func TestShardGroupDeterministicAcrossWorkers(t *testing.T) {
	base := pingPong(t, 5, 100, 10_000, 1)
	for _, workers := range []int{2, 3, 5, 8} {
		got := pingPong(t, 5, 100, 10_000, workers)
		for i := range base {
			if len(got[i]) == 0 {
				t.Fatalf("workers=%d shard %d: empty log", workers, i)
			}
			if fmt.Sprint(got[i]) != fmt.Sprint(base[i]) {
				t.Fatalf("workers=%d shard %d log diverged from serial:\n got %v\nwant %v",
					workers, i, got[i], base[i])
			}
		}
	}
}

// TestShardGroupTieOrder: messages due at the same instant from different
// source shards must be delivered in (At, Src, Seq) order regardless of
// posting order.
func TestShardGroupTieOrder(t *testing.T) {
	g := NewShardGroup(50, 0)
	a, b, dst := g.AddShard(), g.AddShard(), g.AddShard()
	var order []string
	// Post in reverse source order; delivery must sort by Src then Seq.
	b.Eng.At(0, func() {
		dst.Post(b, 100, func() { order = append(order, "b1") })
		dst.Post(b, 100, func() { order = append(order, "b2") })
	})
	a.Eng.At(0, func() {
		dst.Post(a, 100, func() { order = append(order, "a1") })
	})
	g.RunUntil(200, 1)
	want := "[a1 b1 b2]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("tie order = %s, want %s", got, want)
	}
}

// TestShardGroupLookaheadViolation: posting inside the current window must
// panic — it means a cross-shard wire was built with latency below the bound.
func TestShardGroupLookaheadViolation(t *testing.T) {
	g := NewShardGroup(1000, 0)
	a, b := g.AddShard(), g.AddShard()
	a.Eng.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected lookahead-violation panic")
			}
			a.Eng.Stop()
		}()
		b.Post(a, 500, func() {}) // due inside window [0,1000)
	})
	g.RunUntil(999, 1)
}

// TestShardGroupInboxBound: exceeding the per-window inbox capacity panics
// deterministically instead of growing without bound.
func TestShardGroupInboxBound(t *testing.T) {
	g := NewShardGroup(100, 4)
	a, b := g.AddShard(), g.AddShard()
	a.Eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected inbox-overflow panic")
			}
			a.Eng.Stop()
		}()
		for i := 0; i < 10; i++ {
			b.Post(a, 100, func() {})
		}
	})
	g.RunUntil(99, 1)
	if b.InboxHighWater != 4 {
		t.Fatalf("high water = %d, want 4", b.InboxHighWater)
	}
}

// TestShardGroupQuiescence: RunUntil(MaxTime) drains everything, including messages that
// land several windows ahead, then stops.
func TestShardGroupQuiescence(t *testing.T) {
	g := NewShardGroup(10, 0)
	a, b := g.AddShard(), g.AddShard()
	ran := false
	a.Eng.At(0, func() {
		b.Post(a, 1000, func() { ran = true }) // 100 windows ahead
	})
	g.RunUntil(MaxTime, 1)
	if !ran {
		t.Fatal("far-future cross-shard message never ran")
	}
	if b.Eng.Now() < 1000 {
		t.Fatalf("shard clock %v did not reach the delivery time", b.Eng.Now())
	}
	if g.Windows == 0 {
		t.Fatal("no windows recorded")
	}
}

// TestShardGroupResume: successive RunUntil calls continue exactly where
// the previous one stopped (collectors scheduled between calls still fire).
func TestShardGroupResume(t *testing.T) {
	g := NewShardGroup(100, 0)
	a, b := g.AddShard(), g.AddShard()
	var hits []Time
	relay := func() { hits = append(hits, b.Eng.Now()) }
	a.Eng.At(0, func() { b.Post(a, 150, relay) })
	g.RunUntil(199, 1)
	if len(hits) != 1 || hits[0] != 150 {
		t.Fatalf("first leg: hits = %v", hits)
	}
	a.Eng.At(a.Eng.Now(), func() { b.Post(a, 350, relay) })
	g.RunUntil(400, 1)
	if len(hits) != 2 || hits[1] != 350 {
		t.Fatalf("second leg: hits = %v", hits)
	}
}

func BenchmarkShardGroupWindow(b *testing.B) {
	// Measures raw barrier overhead: 4 shards, one event per window each.
	g := NewShardGroup(100, 0)
	for i := 0; i < 4; i++ {
		s := g.AddShard()
		var tick func()
		tick = func() { s.Eng.After(100, tick) }
		s.Eng.At(0, func() { tick() })
	}
	b.ResetTimer()
	deadline := Time(0)
	for i := 0; i < b.N; i++ {
		deadline += 100
		g.RunUntil(deadline-1, 1)
	}
}
