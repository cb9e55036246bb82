package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// refEvent is an event of the calendar's specification: pending events sorted
// by (time, push index).
type refEvent struct {
	at  Time
	idx int
}

// refInsert adds e to the sorted reference, after every event of the same or
// an earlier time (e's push index is the largest yet).
func refInsert(ref []refEvent, e refEvent) []refEvent {
	i, _ := slices.BinarySearchFunc(ref, e, func(a, b refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return a.idx - b.idx
	})
	return slices.Insert(ref, i, e)
}

// TestCalendarPropertyOrder drives the calendar through seeded push/pop
// interleavings against the reference: every pop must be the reference's
// minimum in (time, push index). The times collide heavily (one seed in four
// pushes every event at one instant), a share of pushes is earlier than
// everything pending (the front push), and push-heavy and pop-heavy phases
// move the pending set between empty and hundreds of events, so the calendar
// recentres in place and grows. Slots outside the pending window must stay
// zero.
func TestCalendarPropertyOrder(t *testing.T) {
	var fronts, inPlace, grown int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := []int{1, 3, 16, 1000}[seed%4]
		var c calendar
		var ref []refEvent
		got := -1
		pushes := 0
		for step := 0; step < 4000; step++ {
			pushShare := 60
			if step/500%2 == 1 {
				pushShare = 35 // a draining phase
			}
			if c.len() == 0 || rng.Intn(100) < pushShare {
				at := Time(rng.Intn(span))
				if len(ref) > 0 && rng.Intn(5) == 0 {
					at = ref[0].at - Time(rng.Intn(2)) // earliest, or level with the front
				}
				idx := pushes
				pushes++
				if len(ref) > 0 && at < ref[0].at {
					fronts++
				}
				size, head := len(c.ev), c.head
				c.push(at, func() { got = idx })
				switch {
				case len(c.ev) > size && size > 0:
					grown++
				case len(c.ev) == size && c.head != head && c.head != head-1:
					inPlace++
				}
				ref = refInsert(ref, refEvent{at, idx})
			} else {
				e := c.pop()
				e.fn()
				if e.at != ref[0].at || got != ref[0].idx {
					t.Fatalf("seed %d step %d: popped (%d, push %d), want (%d, push %d)",
						seed, step, e.at, got, ref[0].at, ref[0].idx)
				}
				ref = ref[1:]
			}
			if c.len() != len(ref) {
				t.Fatalf("seed %d step %d: %d pending, want %d", seed, step, c.len(), len(ref))
			}
			for i, e := range c.ev {
				if (i < c.head || i >= c.tail) && e.fn != nil {
					t.Fatalf("seed %d step %d: slot %d outside [%d, %d) still holds an event", seed, step, i, c.head, c.tail)
				}
			}
		}
	}
	if fronts == 0 || inPlace == 0 || grown == 0 {
		t.Fatalf("front pushes %d, in-place recentres %d, growths %d: want each > 0", fronts, inPlace, grown)
	}
}

// TestCalendarRunUntilDeadlines drives the calendar through the kernel: events
// scheduled from outside and from inside events (some at the current
// instant, some in the past, which At clamps) fire in (time, push index)
// order, and RunUntil fires exactly those due by its deadline and stops with
// the clock on it.
func TestCalendarRunUntilDeadlines(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var ref []refEvent
		pushes, fired := 0, 0
		var schedule func(at Time)
		schedule = func(at Time) {
			e := refEvent{max(at, s.Now()), pushes}
			pushes++
			ref = refInsert(ref, e)
			s.At(at, func() {
				if ref[0] != e {
					t.Fatalf("seed %d: fired (%d, push %d), want (%d, push %d)", seed, e.at, e.idx, ref[0].at, ref[0].idx)
				}
				ref = ref[1:]
				fired++
				for k := rng.Intn(3); k > 0 && pushes < 3000; k-- {
					schedule(s.Now() + Time(rng.Intn(4)) - 1)
				}
			})
		}
		for deadline := Time(0); deadline < 400; deadline += Time(rng.Intn(6)) {
			for k := rng.Intn(4); k > 0; k-- {
				schedule(deadline + Time(rng.Intn(8)))
			}
			if end := s.RunUntil(deadline); end != deadline {
				t.Fatalf("seed %d: RunUntil(%d) ended at %d", seed, deadline, end)
			}
			if len(ref) > 0 && ref[0].at <= deadline {
				t.Fatalf("seed %d: RunUntil(%d) left (%d, push %d) due", seed, deadline, ref[0].at, ref[0].idx)
			}
		}
		s.Run()
		if len(ref) != 0 || fired != pushes {
			t.Fatalf("seed %d: %d of %d events fired, %d left", seed, fired, pushes, len(ref))
		}
	}
}

// TestSchedulePastTimestampClamps checks the kernel-level companion
// property: an event scheduled in the past is clamped to "now" rather than
// rewinding the clock, and equal-time events still fire in schedule order.
func TestSchedulePastTimestampClamps(t *testing.T) {
	s := New()
	var order []int
	s.At(10, func() {
		s.At(3, func() { order = append(order, 1) })  // past: clamps to 10
		s.At(10, func() { order = append(order, 2) }) // same time, scheduled later
	})
	end := s.Run()
	if end != 10 {
		t.Fatalf("clock ended at %v, want 10 (past event must not rewind)", end)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("fire order %v, want [1 2]", order)
	}
}
