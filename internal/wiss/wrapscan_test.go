package wiss

import (
	"testing"

	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// advance moves ws to its next page as a shared scan does — Start, then Step
// as p's itinerary — and returns the page.
func advance(p *sim.Proc, ws *WrapScanner, prefetch bool) *Page {
	ws.Start(prefetch)
	p.Steps(ws.Step)
	ws.Fault()
	return ws.Page()
}

func TestWrapScannerFullRevolutionFromMidFile(t *testing.T) {
	s, st, prm := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(500, 3), nil)
	n := f.Pages()
	start := n / 2
	var order []int
	seen := map[int32]int{}
	run(t, s, func(p *sim.Proc) {
		ws := f.NewWrapScanner(start)
		for i := 0; i < n; i++ {
			idx := ws.NextIdx()
			pg := advance(p, ws, i+1 < n)
			order = append(order, idx)
			for _, tp := range pg.Tuples {
				seen[tp.Get(rel.Unique1)]++
			}
		}
		if ws.NextIdx() != start {
			t.Errorf("cursor after full revolution at page %d, want %d", ws.NextIdx(), start)
		}
	})
	for i, idx := range order {
		if want := (start + i) % n; idx != want {
			t.Fatalf("visit %d read page %d, want %d", i, idx, want)
		}
	}
	if len(seen) != 500 {
		t.Errorf("distinct tuples = %d, want 500", len(seen))
	}
	for u, c := range seen {
		if c != 1 {
			t.Errorf("tuple %d delivered %d times", u, c)
		}
	}
	_ = prm
}

func TestWrapScannerEmptyFile(t *testing.T) {
	s, st, _ := testStore(t)
	f := st.CreateFile("empty")
	run(t, s, func(p *sim.Proc) {
		ws := f.NewWrapScanner(0)
		if pg := advance(p, ws, true); pg != nil {
			t.Errorf("advance on empty file = %v, want nil", pg)
		}
	})
}

func TestWrapScannerPrefetchSurvivesHandoff(t *testing.T) {
	// The read-ahead state lives in the scanner: a second process picking up
	// the cursor must consume the pending prefetch, not issue a second read
	// of the same page.
	s, st, _ := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(100, 4), nil)
	ws := f.NewWrapScanner(0)
	s.Spawn("first", func(p *sim.Proc) {
		advance(p, ws, true) // leaves page 1 prefetched
	})
	s.Run()
	s.Spawn("second", func(p *sim.Proc) {
		advance(p, ws, false)
	})
	s.Run()
	hits, misses := st.Pool().Stats()
	// Page 0 and page 1 each read exactly once: two misses, and the
	// hand-off consumed the prefetch instead of re-reading (no hits).
	if misses != 2 || hits != 0 {
		t.Errorf("pool stats hits=%d misses=%d, want 0/2", hits, misses)
	}
}
