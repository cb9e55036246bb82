package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestEqualTimeFIFOProperty drives the calendar with random batches of
// events that share timestamps and asserts the (time, push order) total
// order: within one timestamp, events fire in exactly the order they were
// scheduled. This is the invariant every byte-identical-trace guarantee
// rests on.
func TestEqualTimeFIFOProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 50 + rng.Intn(200)
		var want, got []int
		for i := 0; i < n; i++ {
			// Few distinct timestamps -> many equal-time collisions.
			at := Time(rng.Intn(5))
			id := i
			s.At(at, func() { got = append(got, id) })
			want = append(want, int(at)*1000+i) // sortable key, stable by i
		}
		s.Run()
		// Expected order: by timestamp, then schedule order. Because ids are
		// assigned in schedule order, a stable bucket walk reproduces it.
		var expect []int
		for at := 0; at < 5; at++ {
			for i := 0; i < n; i++ {
				if want[i]/1000 == at {
					expect = append(expect, i)
				}
			}
		}
		if len(got) != len(expect) {
			return false
		}
		for i := range got {
			if got[i] != expect[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitQFIFOProperty parks a random number of processes on a queue in a
// random arrival pattern, removes a random subset (simulating timeouts and
// kills), then wakes the rest one at a time — asserting strict FIFO order
// among the survivors. Exercises the O(1) tombstone removal path.
func TestWaitQFIFOProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		q := s.NewWaitQ("q")
		n := 2 + rng.Intn(40)
		removed := map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				removed[i] = true
			}
		}
		var got []int
		var procs []*Proc
		for i := 0; i < n; i++ {
			id := i
			procs = append(procs, s.Spawn("w", func(p *Proc) {
				q.Park(p)
				got = append(got, id)
			}))
		}
		s.Spawn("driver", func(p *Proc) {
			p.Sleep(1) // let every waiter park first
			for i, kill := range procs {
				if removed[i] {
					kill.Kill()
				}
			}
			for q.Len() > 0 {
				q.WakeOne()
				p.Sleep(1) // let the woken process run before the next wake
			}
		})
		s.Run()
		var expect []int
		for i := 0; i < n; i++ {
			if !removed[i] {
				expect = append(expect, i)
			}
		}
		if len(got) != len(expect) {
			return false
		}
		for i := range got {
			if got[i] != expect[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitQInterleavedParkWake stresses slot reuse: processes repeatedly
// re-park on the same queue while a driver wakes in bursts, checking that
// total wake count and FIFO order per round survive the compaction logic.
func TestWaitQInterleavedParkWake(t *testing.T) {
	s := New()
	q := s.NewWaitQ("q")
	const workers, rounds = 7, 20
	order := make([][]int, rounds)
	for w := 0; w < workers; w++ {
		id := w
		s.Spawn("w", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				q.Park(p)
				order[r] = append(order[r], id)
			}
		})
	}
	s.Spawn("driver", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			p.Sleep(1)
			if q.WakeAll() != workers {
				panic("short wake")
			}
		}
	})
	s.Run()
	for r := 0; r < rounds; r++ {
		if len(order[r]) != workers {
			t.Fatalf("round %d: woke %d of %d", r, len(order[r]), workers)
		}
		for w := 0; w < workers; w++ {
			if order[r][w] != w {
				t.Fatalf("round %d: FIFO violated: %v", r, order[r])
			}
		}
	}
}

// TestSameInstantChildKeepsSerialOrder: an event that schedules a child at
// its own instant does not let the child jump the queue. A bystander
// scheduled for that instant before the parent fired runs first, because the
// child is pushed only when the parent fires.
func TestSameInstantChildKeepsSerialOrder(t *testing.T) {
	const T = Time(50)
	s := New()
	var order []string
	s.At(T, func() {
		order = append(order, "parent")
		s.At(s.Now(), func() { order = append(order, "child") })
	})
	s.At(T, func() { order = append(order, "bystander") })
	s.Run()
	if got := strings.Join(order, " "); got != "parent bystander child" {
		t.Errorf("fired %q, want parent, bystander, child", got)
	}
}
