package sim

// event is one pending occurrence in the calendar. Exactly one of
// p/fn is set: wake events carry the process to resume — or, while it is on
// an itinerary (Proc.Steps), whose next stage to run — directly (no closure
// allocation per park/wake), fn events carry arbitrary kernel callbacks.
//
// ord is the global schedule counter (see Sim.schedule), the tie-break that
// fires equal-time events in the order they were scheduled: (at, ord) is a
// deterministic total order over all events of a run — the invariant every
// byte-identical-trace guarantee rests on.
type event struct {
	at  Time
	ord uint64 // tie-break so equal-time events fire in a fixed total order
	p   *Proc  // wake event: process to resume (nil for fn events)
	fn  func() // callback event (nil for wake events)
}

// eventHeap is a 4-ary min-heap of events ordered by (at, ord). It is
// deliberately monomorphic — no container/heap, no interface boxing — so the
// steady-state schedule/fire cycle allocates nothing: Push appends into the
// backing slice (amortized growth only) and Pop shrinks it in place.
//
// A 4-ary layout halves tree depth versus binary, trading slightly more
// comparisons per level for fewer cache-missing swaps — the standard shape
// for event calendars with large pending sets (the multi-user experiments
// keep thousands of events in flight).
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

// less orders by time, then by the deterministic tie-break key.
func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// push inserts e, sifting it up from the last slot.
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The vacated slot is zeroed so
// the heap does not pin dead closures or processes for the GC.
func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{}
	h.ev = h.ev[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

// siftDown restores heap order below slot i.
func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			return
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
}
