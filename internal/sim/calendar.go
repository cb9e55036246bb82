package sim

// event is one pending occurrence in the calendar: at its time the kernel
// calls fn. A process's wake event carries its fireWake method, bound once at
// spawn, so a park/wake cycle allocates nothing; any other event carries a
// kernel callback.
type event struct {
	at Time
	fn func()
}

// calendar holds the pending events as a sorted deque: ev[head:tail] is in
// firing order, by time and, at equal times, in the order the events were
// pushed. That order is a deterministic total order over a run's events, the
// invariant every byte-identical-trace guarantee rests on, and it needs no
// tie-break counter: a push goes after every pending event of the same or an
// earlier time.
//
// Pop takes the front in O(1). A push that is the earliest goes to the front
// in O(1); any other binary-searches its slot and shifts whichever side of it
// is shorter. The workloads keep 17–38 events pending on average and a few
// hundred at most, where this beats a heap; past about a thousand the heap
// wins (DESIGN.md §6). Slots outside [head, tail) are zero, so the calendar
// pins no dead callback.
type calendar struct {
	ev         []event
	head, tail int
}

func (c *calendar) len() int { return c.tail - c.head }

// pop removes and returns the earliest event; the calendar must not be empty.
func (c *calendar) pop() event {
	e := c.ev[c.head]
	c.ev[c.head] = event{}
	c.head++
	return e
}

// push inserts an event at time at, after every pending event of the same or
// an earlier time.
func (c *calendar) push(at Time, fn func()) {
	if c.head == 0 || c.tail == len(c.ev) {
		c.recentre()
	}
	ev, h, t := c.ev, c.head, c.tail
	if h == t || at < ev[h].at {
		ev[h-1] = event{at, fn}
		c.head = h - 1
		return
	}
	// i is the first pending event later than at; ev[h] is not.
	lo, hi := h+1, t
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ev[m].at <= at {
			lo = m + 1
		} else {
			hi = m
		}
	}
	i := lo
	if i-h < t-i {
		copy(ev[h-1:], ev[h:i])
		ev[i-1] = event{at, fn}
		c.head = h - 1
	} else {
		copy(ev[i+1:t+1], ev[i:t])
		ev[i] = event{at, fn}
		c.tail = t + 1
	}
}

// recentre moves the pending events to the middle of the slice, doubling it
// first when they fill half of it, so both ends have room: at least a quarter
// of the slice, which the pushes that use it up pay for.
func (c *calendar) recentre() {
	old, oh, ot := c.ev, c.head, c.tail
	n := ot - oh
	if 2*(n+1) > len(c.ev) {
		c.ev = make([]event, max(2*len(old), 64))
	}
	h := (len(c.ev) - n) / 2
	copy(c.ev[h:], old[oh:ot])
	if len(c.ev) == len(old) { // moved within the slice: zero what it left
		if oh < h {
			clear(c.ev[oh:min(h, ot)])
		} else {
			clear(c.ev[max(h+n, oh):ot])
		}
	}
	c.head, c.tail = h, h+n
}
