package wiss

import (
	"testing"

	"gamma/internal/config"
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// testStore builds a single-node store with the default parameters.
func testStore(t *testing.T) (*sim.Sim, *Store, *config.Params) {
	t.Helper()
	s := sim.New()
	prm := config.Default()
	n := nose.NewNetwork(s, prm.Net, prm.CPU)
	node := n.AddNode(true, prm.Disk)
	return s, NewStore(node, &prm), &prm
}

func run(t *testing.T, s *sim.Sim, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	s.Spawn("test", fn)
	return s.Run()
}

func TestLoadDirectPaging(t *testing.T) {
	_, st, prm := testStore(t)
	f := st.CreateFile("r")
	ts := wisconsin.Generate(1000, 1)
	f.LoadDirect(ts, nil)
	wantPages := (1000 + prm.TuplesPerPage() - 1) / prm.TuplesPerPage()
	if f.Pages() != wantPages {
		t.Errorf("pages = %d, want %d", f.Pages(), wantPages)
	}
	if f.Len() != 1000 {
		t.Errorf("len = %d", f.Len())
	}
	if prm.TuplesPerPage() != 17 {
		t.Errorf("tuples per 4KB page = %d, want 17 (paper §5.1)", prm.TuplesPerPage())
	}
}

func TestScannerVisitsEveryTupleOnce(t *testing.T) {
	s, st, _ := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(500, 2), nil)
	seen := map[int32]bool{}
	run(t, s, func(p *sim.Proc) {
		sc := f.NewScanner()
		for pg := sc.NextPage(p); pg != nil; pg = sc.NextPage(p) {
			for _, tp := range pg.Tuples {
				u := tp.Get(rel.Unique1)
				if seen[u] {
					t.Errorf("tuple %d seen twice", u)
				}
				seen[u] = true
			}
		}
	})
	if len(seen) != 500 {
		t.Errorf("saw %d tuples, want 500", len(seen))
	}
}

func TestScanIsMostlySequentialOnDisk(t *testing.T) {
	s, st, _ := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(2000, 3), nil)
	run(t, s, func(p *sim.Proc) {
		sc := f.NewScanner()
		for pg := sc.NextPage(p); pg != nil; pg = sc.NextPage(p) {
			_ = pg
		}
	})
	ds := st.Node().Drive.Stats()
	if ds.RandReads != 1 || ds.SeqReads != int64(f.Pages()-1) {
		t.Errorf("drive stats = %+v, want 1 random + %d sequential", ds, f.Pages()-1)
	}
}

func TestAppenderRoundTrip(t *testing.T) {
	s, st, _ := testStore(t)
	f := st.CreateFile("out")
	ts := wisconsin.Generate(100, 4)
	run(t, s, func(p *sim.Proc) {
		ap := f.NewAppender()
		for _, tp := range ts {
			ap.Append(p, tp)
		}
		if n := ap.Close(p); n != 100 {
			t.Errorf("appended %d", n)
		}
	})
	if f.Len() != 100 {
		t.Errorf("len = %d", f.Len())
	}
	// Appender must have written every full page plus the final partial.
	ds := st.Node().Drive.Stats()
	if w := ds.SeqWrites + ds.RandWrites; w != int64(f.Pages()) {
		t.Errorf("writes = %d, want %d", w, f.Pages())
	}
}

func TestBufferPoolAvoidsSecondRead(t *testing.T) {
	s, st, _ := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(50, 5), nil)
	run(t, s, func(p *sim.Proc) {
		f.ReadPage(p, 0)
		before := st.Node().Drive.Stats().Reads()
		f.ReadPage(p, 0)
		if after := st.Node().Drive.Stats().Reads(); after != before {
			t.Errorf("second read hit the drive (%d -> %d reads)", before, after)
		}
	})
}

func TestBufferPoolLRUEviction(t *testing.T) {
	bp := NewBufferPool(2)
	bp.Put(1, 0)
	bp.Put(1, 1)
	bp.Get(1, 0) // make page 0 MRU
	bp.Put(1, 2) // evicts page 1
	if !bp.Get(1, 0) {
		t.Error("page 0 should be resident")
	}
	if bp.Get(1, 1) {
		t.Error("page 1 should have been evicted")
	}
	if !bp.Get(1, 2) {
		t.Error("page 2 should be resident")
	}
}

func TestUpdateAndFetchRID(t *testing.T) {
	s, st, _ := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(40, 6), nil)
	run(t, s, func(p *sim.Proc) {
		rid := RID{Page: 1, Slot: 3}
		tp := f.FetchRID(p, rid)
		tp.Set(rel.Ten, 999)
		f.UpdateRID(p, rid, tp)
		if got := f.FetchRID(p, rid); got.Get(rel.Ten) != 999 {
			t.Errorf("update lost: %v", got.Get(rel.Ten))
		}
	})
}

func TestDeleteRID(t *testing.T) {
	s, st, _ := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(40, 7), nil)
	run(t, s, func(p *sim.Proc) {
		before := f.Len()
		f.DeleteRID(p, RID{Page: 0, Slot: 0})
		if f.Len() != before-1 {
			t.Errorf("len = %d, want %d", f.Len(), before-1)
		}
	})
}
