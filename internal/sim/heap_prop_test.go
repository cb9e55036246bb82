package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventHeapPropertyOrder drives the calendar heap through randomized
// push/pop interleavings and checks the one property everything rests on:
// pops come out in strict (at, ord) order, matching a reference sort of
// whatever was pushed. Keys deliberately collide heavily on `at` so the
// ord tie-break is exercised, and some spans are popped mid-stream so the
// heap is tested at many fill levels, not just drain-after-fill.
func TestEventHeapPropertyOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var pending []event // reference multiset of currently pushed events
		var popped []event
		ord := uint64(0)
		steps := 200 + rng.Intn(800)
		for i := 0; i < steps; i++ {
			if h.len() == 0 || rng.Intn(3) > 0 {
				ord++
				e := event{at: Time(rng.Intn(16)), ord: ord}
				h.push(e)
				pending = append(pending, e)
			} else {
				popped = append(popped, h.pop())
			}
		}
		for h.len() > 0 {
			popped = append(popped, h.pop())
		}
		if len(popped) != len(pending) {
			t.Fatalf("seed %d: popped %d events, pushed %d", seed, len(popped), len(pending))
		}
		// Validate against a reference order. A heap interleaved with pops
		// is not globally sorted output, so check the strong local
		// property instead: every pop must be the minimum of what was in
		// the heap at that moment. Replaying the interleaving against a
		// sorted multiset is equivalent to re-running with a reference
		// priority queue; simplest correct check is to verify each popped
		// event is <= everything popped later that was already pushed
		// before it was popped. Since ords are unique and assigned in push
		// order, it suffices that the full drain tail is sorted and that
		// re-running the same interleaving against a sorted-slice
		// reference produces the same pop sequence.
		ref := replayReference(seed)
		for i := range popped {
			if popped[i].at != ref[i].at || popped[i].ord != ref[i].ord {
				t.Fatalf("seed %d: pop %d = (%d,%d), reference (%d,%d)",
					seed, i, popped[i].at, popped[i].ord, ref[i].at, ref[i].ord)
			}
		}
	}
}

// replayReference replays the same seeded interleaving as the test against
// a trivially correct priority queue (sorted slice, stable on ord).
func replayReference(seed int64) []event {
	rng := rand.New(rand.NewSource(seed))
	var q []event
	var popped []event
	ord := uint64(0)
	steps := 200 + rng.Intn(800)
	for i := 0; i < steps; i++ {
		if len(q) == 0 || rng.Intn(3) > 0 {
			ord++
			e := event{at: Time(rng.Intn(16)), ord: ord}
			q = append(q, e)
			sort.SliceStable(q, func(a, b int) bool {
				if q[a].at != q[b].at {
					return q[a].at < q[b].at
				}
				return q[a].ord < q[b].ord
			})
		} else {
			popped = append(popped, q[0])
			q = q[1:]
		}
	}
	for len(q) > 0 {
		popped = append(popped, q[0])
		q = q[1:]
	}
	return popped
}

// TestSchedulePastTimestampClamps checks the kernel-level companion
// property: an event scheduled in the past is clamped to "now" rather than
// rewinding the clock, and equal-time events still fire in schedule order.
func TestSchedulePastTimestampClamps(t *testing.T) {
	s := New()
	var order []int
	s.At(10, func() {
		s.At(3, func() { order = append(order, 1) })  // past: clamps to 10
		s.At(10, func() { order = append(order, 2) }) // same time, later ord
	})
	end := s.Run()
	if end != 10 {
		t.Fatalf("clock ended at %v, want 10 (past event must not rewind)", end)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("fire order %v, want [1 2]", order)
	}
}
