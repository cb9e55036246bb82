package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"gamma/internal/rel"
	"gamma/internal/trace"
)

func TestRunSortProducesGlobalOrder(t *testing.T) {
	m, r := newMachineWithRel(4, 0, 3000)
	res := m.RunSort(SortQuery{
		Scan: ScanSpec{Rel: r, Pred: rel.True(), Path: PathHeap},
		By:   rel.Unique2,
	})
	if res.Tuples != 3000 {
		t.Fatalf("sorted %d tuples", res.Tuples)
	}
	out, ok := m.Relation(res.ResultName)
	if !ok {
		t.Fatal("result relation missing")
	}
	last := int32(-1)
	count := 0
	for _, fr := range out.Frags {
		for pg := 0; pg < fr.File.Pages(); pg++ {
			for _, tp := range fr.File.PageTuples(pg) {
				k := tp.Get(rel.Unique2)
				if k < last {
					t.Fatalf("out of order: %d after %d", k, last)
				}
				last = k
				count++
			}
		}
	}
	if count != 3000 {
		t.Errorf("stored %d", count)
	}
}

func TestRunSortWithPredicate(t *testing.T) {
	m, r := newMachineWithRel(4, 0, 2000)
	res := m.RunSort(SortQuery{
		Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique1, 0, 499), Path: PathClustered},
		By:   rel.Unique2,
	})
	if res.Tuples != 500 {
		t.Errorf("sorted %d tuples, want 500", res.Tuples)
	}
	if res.Elapsed <= 0 {
		t.Error("zero elapsed")
	}
}

func TestRunSortEmpty(t *testing.T) {
	m, r := newMachineWithRel(4, 0, 500)
	res := m.RunSort(SortQuery{
		Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, -2, -1), Path: PathHeap},
		By:   rel.Unique1,
	})
	if res.Tuples != 0 {
		t.Errorf("sorted %d tuples from empty qualification", res.Tuples)
	}
}

// TestRunSortTracePins holds a sorted retrieve — per-site sorts whose runs the
// merge operator reads over the network, on a many-valued key — to the event
// stream, response time and retired-event count it had when the merge parked
// its process for every tuple and took its order from container/heap
// (recorded at the commit before the merge became an itinerary, on a
// simulation partitioned at Net.MinLatency: the one initiation model, where the
// five operator starts each cross the ring).
func TestRunSortTracePins(t *testing.T) {
	m, r := newMachineWithRel(4, 0, 3000)
	col := trace.NewCollector()
	m.Sim.SetSink(col)
	res := m.RunSort(SortQuery{
		Scan: ScanSpec{Rel: r, Pred: rel.True(), Path: PathHeap},
		By:   rel.Ten,
	})
	h := sha256.New()
	if err := col.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x %d %d %d", h.Sum(nil), res.Elapsed, m.Sim.Executed(), res.Tuples)
	if want := "6daec71f7f3306554054492cae37e5f32e86b3da573e71ef9744f101515638ce 9868606 6179 3000"; got != want {
		t.Errorf("trace sha256, elapsed, events, tuples = %s, want %s", got, want)
	}
}
