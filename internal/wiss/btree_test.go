package wiss

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

func buildIndexed(t *testing.T, n int, kind IndexKind, attr rel.Attr) (*sim.Sim, *Store, *File, *BTree) {
	t.Helper()
	s, st, _ := testStore(t)
	f := st.CreateFile("r")
	ts := wisconsin.Generate(n, 11)
	if kind == Clustered {
		a := attr
		f.LoadDirect(ts, &a)
	} else {
		f.LoadDirect(ts, nil)
	}
	bt := NewBTree(f, attr, kind)
	return s, st, f, bt
}

func TestClusteredIndexHeight(t *testing.T) {
	_, _, _, bt := buildIndexed(t, 12500, Clustered, rel.Unique1)
	// 12,500 tuples at 17/page = 736 data pages; sparse entries at fanout
	// 256 -> 3 leaves + root = height 2, matching §5.2.1's "2 levels".
	if bt.Height() != 2 {
		t.Errorf("height = %d, want 2", bt.Height())
	}
}

func TestNonClusteredIndexIsDense(t *testing.T) {
	_, _, f, bt := buildIndexed(t, 2000, NonClustered, rel.Unique2)
	if bt.Entries() != f.Len() {
		t.Errorf("entries = %d, want %d (dense index, §3)", bt.Entries(), f.Len())
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNonClusteredSearchFindsEveryTuple(t *testing.T) {
	s, _, f, bt := buildIndexed(t, 1000, NonClustered, rel.Unique2)
	s.Spawn("search", func(p *sim.Proc) {
		for key := int32(0); key < 1000; key += 97 {
			rids := bt.SearchRIDs(p, key)
			if len(rids) != 1 {
				t.Fatalf("key %d: %d rids", key, len(rids))
			}
			if got := f.FetchRID(p, rids[0]); got.Get(rel.Unique2) != key {
				t.Errorf("key %d: fetched tuple with unique2=%d", key, got.Get(rel.Unique2))
			}
		}
	})
	s.Run()
}

func TestNonClusteredRangeMatchesScan(t *testing.T) {
	s, _, f, bt := buildIndexed(t, 3000, NonClustered, rel.Unique2)
	lo, hi := int32(100), int32(399)
	var viaIndex []int32
	s.Spawn("range", func(p *sim.Proc) {
		bt.RangeRIDs(p, lo, hi, func(r RID) {
			viaIndex = append(viaIndex, f.page(int(r.Page)).Tuples[r.Slot].Get(rel.Unique2))
		})
	})
	s.Run()
	if len(viaIndex) != int(hi-lo+1) {
		t.Fatalf("index range returned %d tuples, want %d", len(viaIndex), hi-lo+1)
	}
	if !sort.SliceIsSorted(viaIndex, func(i, j int) bool { return viaIndex[i] < viaIndex[j] }) {
		t.Error("index range not in key order")
	}
}

func TestClusteredRangeScanTouchesOnlyNeededPages(t *testing.T) {
	s, st, f, bt := buildIndexed(t, 10000, Clustered, rel.Unique1)
	// 1% selection: 100 tuples = ~6 data pages instead of all 589.
	s.Spawn("scan", func(p *sim.Proc) {
		start := bt.StartPage(p, 5000)
		before := st.Node().Drive.Stats().Reads()
		sc := f.NewScannerAt(start)
		count := 0
		for pg := sc.NextPage(p); pg != nil; pg = sc.NextPage(p) {
			stop := false
			for _, tp := range pg.Tuples {
				k := tp.Get(rel.Unique1)
				if k >= 5000 && k <= 5099 {
					count++
				}
				if k > 5099 {
					stop = true
				}
			}
			if stop {
				break
			}
		}
		if count != 100 {
			t.Errorf("range scan found %d tuples, want 100", count)
		}
		dataReads := st.Node().Drive.Stats().Reads() - before
		if dataReads > 10 {
			t.Errorf("clustered 1%% scan read %d pages, want <= 10", dataReads)
		}
	})
	s.Run()
}

func TestInsertEntryMaintainsInvariants(t *testing.T) {
	s, _, _, bt := buildIndexed(t, 500, NonClustered, rel.Unique2)
	s.Spawn("insert", func(p *sim.Proc) {
		for i := int32(0); i < 300; i++ {
			bt.InsertEntry(p, 500+i, RID{Page: 0, Slot: 0})
		}
	})
	s.Run()
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if bt.Entries() != 800 {
		t.Errorf("entries = %d, want 800", bt.Entries())
	}
}

func TestInsertThenSearchProperty(t *testing.T) {
	f := func(keys []int16) bool {
		s := sim.New()
		prm := testParams()
		st := storeOn(s, &prm)
		file := st.CreateFile("r")
		bt := NewBTree(file, rel.Unique2, NonClustered)
		ok := true
		s.Spawn("p", func(p *sim.Proc) {
			counts := map[int32]int{}
			for i, k := range keys {
				bt.InsertEntry(p, int32(k), RID{Page: int32(i), Slot: 0})
				counts[int32(k)]++
			}
			if err := bt.CheckInvariants(); err != nil {
				ok = false
				return
			}
			for k, want := range counts {
				if got := len(bt.SearchRIDs(p, k)); got != want {
					ok = false
					return
				}
			}
		})
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeleteEntry(t *testing.T) {
	s, _, _, bt := buildIndexed(t, 400, NonClustered, rel.Unique2)
	s.Spawn("del", func(p *sim.Proc) {
		rids := bt.SearchRIDs(p, 123)
		if len(rids) != 1 {
			t.Fatalf("rids = %v", rids)
		}
		if !bt.DeleteEntry(p, 123, rids[0]) {
			t.Fatal("delete failed")
		}
		if got := bt.SearchRIDs(p, 123); len(got) != 0 {
			t.Errorf("key still present after delete: %v", got)
		}
	})
	s.Run()
	if err := bt.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestIndexTraversalChargesIO(t *testing.T) {
	s, st, _, bt := buildIndexed(t, 10000, NonClustered, rel.Unique2)
	var elapsed sim.Dur
	s.Spawn("lookup", func(p *sim.Proc) {
		st.Pool().Reset()
		start := p.Now()
		bt.SearchRIDs(p, 4242)
		elapsed = p.Now() - start
	})
	s.Run()
	if elapsed == 0 {
		t.Error("index search took zero simulated time")
	}
	if bt.Height() < 2 {
		t.Errorf("height = %d, want >= 2 for 10k dense entries", bt.Height())
	}
	_ = st
}

func TestLargerPagesIncreaseFanoutAndReduceHeight(t *testing.T) {
	s := sim.New()
	prm := testParams()
	prm.PageBytes = 32 * 1024
	st := storeOn(s, &prm)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(100000, 12), nil)
	bt := NewBTree(f, rel.Unique2, NonClustered)
	if bt.Height() > 2 {
		t.Errorf("height = %d at 32KB pages, want <= 2", bt.Height())
	}
}

// TestCollectEntriesMatchesStableSort: a dense index's bulk-build entries,
// permuted in place, are the live tuples in (key, page, slot) order, keys
// repeating and slots tombstoned included.
func TestCollectEntriesMatchesStableSort(t *testing.T) {
	s, st, _ := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(3000, 5), nil)
	s.Spawn("kill", func(p *sim.Proc) {
		for pg := 0; pg < f.Pages(); pg += 3 {
			f.DeleteRID(p, RID{Page: int32(pg), Slot: int32(pg % 7)})
		}
	})
	s.Run()
	for _, attr := range []rel.Attr{rel.Unique2, rel.Ten, rel.OnePercent} {
		var want []entry
		for i := range f.Pages() {
			pg := f.page(i)
			for s, tp := range pg.Tuples {
				if pg.Live(s) {
					want = append(want, entry{key: tp.Get(attr), rid: RID{Page: int32(i), Slot: int32(s)}})
				}
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		got := (&BTree{file: f, Attr: attr, Kind: NonClustered}).collectEntries()
		if !slices.Equal(got, want) {
			t.Errorf("%v: collected entries differ from a stable sort of the live tuples by key", attr)
		}
	}
}
