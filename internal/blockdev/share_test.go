package blockdev

import (
	"bytes"
	"math/rand"
	"testing"
)

// groupInvariants checks the pointers of a store group: a page is held at
// one page index only, and the free list holds distinct pages that no store
// holds.
func groupInvariants(t *testing.T, g []*Store, step int) {
	t.Helper()
	at := map[*page]uint64{}
	pages := uint64(len(g[0].dir)) << leafShift
	for _, s := range g {
		for idx := uint64(0); idx < pages; idx++ {
			p := s.page(idx)
			if p == nil {
				continue
			}
			if i, ok := at[p]; ok && i != idx {
				t.Fatalf("step %d: a page is held as page %d and page %d", step, i, idx)
			}
			at[p] = idx
		}
	}
	freed := map[*page]bool{}
	for _, p := range g[0].free {
		if _, held := at[p]; held || freed[p] {
			t.Fatalf("step %d: the free list holds a page that is held or listed twice", step)
		}
		freed[p] = true
	}
	for _, s := range g[1:] {
		if len(s.free) != 0 {
			t.Fatalf("step %d: a store other than the group's first keeps a free list", step)
		}
	}
}

// sharedPages returns a copy of every page that two or more stores of g
// hold, keyed by the page.
func sharedPages(g []*Store) map[*page]page {
	holders := map[*page]int{}
	pages := uint64(len(g[0].dir)) << leafShift
	for _, s := range g {
		for idx := uint64(0); idx < pages; idx++ {
			if p := s.page(idx); p != nil {
				holders[p]++
			}
		}
	}
	shared := map[*page]page{}
	for p, n := range holders {
		if n > 1 {
			shared[p] = *p
		}
	}
	return shared
}

// lentView is a view a store lent, with the bytes it held when lent.
type lentView struct {
	store int
	view  []byte
	want  []byte
}

// TestReplicaStoresMatchStandaloneTwins applies one seeded mix of whole-page,
// partial and cross-page writes, fan-out writes of one payload to every
// store, reads and lends to a group of three stores and to three standalone
// twins. Every read and lend agrees with the twin byte for byte. After every
// step: no page that two stores held was written in place, a page is held at
// one index only, the free list holds only unreferenced pages, and every
// view a store lent since its last write still holds the bytes it was lent
// with, whatever its siblings wrote.
func TestReplicaStoresMatchStandaloneTwins(t *testing.T) {
	const sectorSize, capacity = 512, 8*pageSize/512 + 3 // eight pages and a part
	const perPage = pageSize / sectorSize
	rng := rand.New(rand.NewSource(7))
	group := NewReplicaStores(3, sectorSize, capacity)
	var twins []*Store
	for range group {
		twins = append(twins, NewStore(sectorSize, capacity))
	}
	// Few distinct page contents, so stores often hold equal pages.
	var palette [][]byte
	for i := range 4 {
		palette = append(palette, pattern(pageSize, byte(17*i+1)))
	}
	payload := func(n int) []byte {
		if n == pageSize && rng.Intn(4) != 0 {
			return palette[rng.Intn(len(palette))]
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var views []lentView
	write := func(i int, sector uint64, data []byte) {
		if err := group[i].Write(sector, data); err != nil {
			t.Fatal(err)
		}
		if err := twins[i].Write(sector, data); err != nil {
			t.Fatal(err)
		}
		kept := views[:0]
		for _, v := range views {
			if v.store != i {
				kept = append(kept, v)
			}
		}
		views = kept
	}
	var shares, frees int
	for step := range 5000 {
		shared := sharedPages(group)
		i := rng.Intn(len(group))
		switch op := rng.Intn(10); {
		case op < 3: // one whole page
			write(i, uint64(rng.Intn(capacity/perPage)*perPage), payload(pageSize))
		case op < 5: // the same whole pages to every store, as a volume's fan-out
			sector := uint64(rng.Intn(capacity/perPage-1) * perPage)
			data := payload(pageSize)
			if rng.Intn(3) == 0 {
				data = append(payload(pageSize), payload(pageSize)...)
			}
			for j := range group {
				write(j, sector, data)
			}
		case op < 7: // partial or across pages
			sector := uint64(rng.Intn(capacity))
			n := 1 + rng.Intn(min(2*perPage, capacity-int(sector)))
			write(i, sector, payload(n*sectorSize))
		case op < 9:
			sector := uint64(rng.Intn(capacity))
			n := 1 + rng.Intn(capacity-int(sector))
			got, err := group[i].Read(sector, n)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := twins[i].Read(sector, n)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: store %d read of %d sectors at %d differs from its twin", step, i, n, sector)
			}
		default:
			sector := uint64(rng.Intn(capacity))
			n := 1 + rng.Intn(min(perPage, capacity-int(sector)))
			if v := group[i].lend(sector, n*sectorSize); v != nil {
				want, _ := twins[i].Read(sector, n)
				if !bytes.Equal(v, want) {
					t.Fatalf("step %d: store %d lent %d sectors at %d that differ from its twin", step, i, n, sector)
				}
				views = append(views, lentView{i, v, want})
			}
		}
		for p, was := range shared {
			if *p != was {
				t.Fatalf("step %d: a page two stores held was written in place", step)
			}
		}
		for _, v := range views {
			if !bytes.Equal(v.view, v.want) {
				t.Fatalf("step %d: a view store %d lent changed before its next write", step, v.store)
			}
		}
		groupInvariants(t, group, step)
		shares += len(shared)
		frees += len(group[0].free)
	}
	for i := range group {
		got, _ := group[i].Read(0, capacity)
		want, _ := twins[i].Read(0, capacity)
		if !bytes.Equal(got, want) {
			t.Errorf("store %d differs from its twin at the end", i)
		}
	}
	// The mix must reach the cases it is there to check.
	if shares == 0 || frees == 0 {
		t.Errorf("no step shared a page (%d) or freed one (%d)", shares, frees)
	}
}

// A view store A lends from a page it shares with B survives B's overwrite
// of that block, and A's own next write is what ends it.
func TestSharedPageViewSurvivesSiblingWrite(t *testing.T) {
	g := NewReplicaStores(2, 512, 64)
	a, b := pattern(pageSize, 1), pattern(pageSize, 2)
	for _, s := range g {
		if err := s.Write(8, a); err != nil {
			t.Fatal(err)
		}
	}
	if g[0].page(1) != g[1].page(1) {
		t.Fatal("two stores that wrote the same page do not share it")
	}
	view := g[0].lend(8, pageSize)
	if err := g[1].Write(8, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, a) {
		t.Error("a sibling's overwrite changed a lent view")
	}
	if got, _ := g[1].Read(8, 8); !bytes.Equal(got, b) {
		t.Error("the sibling does not read its own write")
	}
	// A now holds the page alone, so its own write goes in place.
	if err := g[0].Write(8, b[:512]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view[:512], b[:512]) || &view[0] != &g[0].page(1)[0] {
		t.Error("a page no sibling shares was not written in place")
	}
}

// Once the group's free list holds a page, a fan-out of a whole page to
// every replica, whose first write copies the page the three share,
// allocates nothing: the copy comes from the free list, the other replicas
// point at it, and the old page goes back on the list.
func TestReplicaStoresSharedWriteZeroAlloc(t *testing.T) {
	g := NewReplicaStores(3, 512, 64)
	data := [2][]byte{pattern(pageSize, 1), pattern(pageSize, 2)}
	n := 0
	fanOut := func() {
		n++
		for _, s := range g {
			_ = s.Write(8, data[n%2])
		}
	}
	fanOut()
	fanOut() // frees the first payload's page
	if len(g[0].free) != 1 || g[0].page(1) != g[1].page(1) || g[1].page(1) != g[2].page(1) {
		t.Fatalf("after two fan-outs: %d free pages, want the three replicas on one page and one free", len(g[0].free))
	}
	if a := testing.AllocsPerRun(100, fanOut); a != 0 {
		t.Errorf("fan-out to a shared page: %.1f allocs/op, want 0", a)
	}
}
