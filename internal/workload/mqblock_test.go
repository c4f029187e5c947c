package workload

import (
	"errors"
	"slices"
	"testing"

	"vrio/internal/sim"
	"vrio/internal/stats"
)

// fakeTarget is a write target that holds every write until the test
// completes it.
type fakeTarget struct {
	writes []fakeWrite
}

type fakeWrite struct {
	q      uint8
	sector uint64
	done   func(error)
}

func (f *fakeTarget) write(q uint8, sector uint64, data []byte, done func(error)) {
	f.writes = append(f.writes, fakeWrite{q, sector, done})
}

func TestMQBlockLedgerCountsDupAndLost(t *testing.T) {
	var f fakeTarget
	m := NewMQBlock(sim.NewEngine(), f.write, 1, 2, 4096)
	m.Start()
	if len(f.writes) != 2 {
		t.Fatalf("Start issued %d writes, want QD=2", len(f.writes))
	}
	m.Stop()
	f.writes[0].done(nil)
	f.writes[0].done(nil) // a duplicate completion of the same request
	want := Ledger{Issued: 2, Completed: 1, Dup: 1, Lost: 1}
	if got := m.Ledger(); got != want {
		t.Errorf("ledger = %+v, want %+v", got, want)
	}
	if len(f.writes) != 2 {
		t.Errorf("%d writes issued after Stop", len(f.writes)-2)
	}
}

func TestMQBlockErrorCompletionReissues(t *testing.T) {
	var f fakeTarget
	m := NewMQBlock(sim.NewEngine(), f.write, 1, 1, 512)
	m.Start()
	f.writes[0].done(errors.New("device error"))
	if len(f.writes) != 2 {
		t.Fatalf("an error completion issued %d writes, want 1", len(f.writes)-1)
	}
	want := Ledger{Issued: 2, Completed: 1, Lost: 1, Errs: 1}
	if got := m.Ledger(); got != want {
		t.Errorf("ledger = %+v, want %+v", got, want)
	}
	m.Stop()
	f.writes[1].done(nil)
	if len(f.writes) != 2 {
		t.Errorf("a completion after Stop issued a write")
	}
	if got := m.Ledger(); got.Completed != 2 || got.Lost != 0 || got.Dup != 0 {
		t.Errorf("ledger after drain = %+v", got)
	}
}

// With NQ=2 each queue strides by 17 through its own 1024-sector region,
// and every 16th request of a queue goes to the shared region at sector
// 2048.
func TestMQBlockSectorSequences(t *testing.T) {
	var f fakeTarget
	m := NewMQBlock(sim.NewEngine(), f.write, 2, 1, 4096)
	m.Start()
	for i := 0; i < 2*20; i++ {
		f.writes[i].done(nil)
	}
	got := [2][]uint64{}
	for _, w := range f.writes {
		got[w.q] = append(got[w.q], w.sector)
	}
	want := [2][]uint64{
		{2048, 17, 34, 51, 68, 85, 102, 119, 136, 153, 170, 187, 204, 221, 238, 255, 2048, 289, 306, 323},
		{2048, 1041, 1058, 1075, 1092, 1109, 1126, 1143, 1160, 1177, 1194, 1211, 1228, 1245, 1262, 1279, 2048, 1313, 1330, 1347},
	}
	for q := range want {
		if !slices.Equal(got[q][:20], want[q]) {
			t.Errorf("queue %d sectors = %v, want %v", q, got[q][:20], want[q])
		}
	}
	// Wrap-around inside the region: request 61 of queue 1 is at
	// 1024 + 61*17 % 1024.
	for i := 40; i < 2*62; i++ {
		f.writes[i].done(nil)
	}
	if s := f.writes[2*61+1].sector; s != 1024+61*17%1024 {
		t.Errorf("queue 1 request 61 at sector %d", s)
	}
}

func TestMQBlockPlaceAndLatency(t *testing.T) {
	eng := sim.NewEngine()
	var sectors []uint64
	m := NewMQBlock(eng, func(q uint8, sector uint64, data []byte, done func(error)) {
		sectors = append(sectors, sector)
		eng.After(7*sim.Microsecond+500, func() { done(nil) })
	}, 1, 1, 4096)
	m.Place = func(_, seq int) uint64 { return uint64(seq) * 8 }
	m.Latency = &stats.Histogram{}
	m.Start()
	eng.At(31*sim.Microsecond, m.Stop)
	eng.Run()
	if !slices.Equal(sectors, []uint64{0, 8, 16, 24, 32}) {
		t.Errorf("placed sectors = %v", sectors)
	}
	if n, p := m.Latency.Count(), m.Latency.Percentile(99); n != 5 || p != 7 {
		t.Errorf("latency: %d samples, p99 %dµs; want 5 at whole 7µs", n, p)
	}
}
