package sim

// WaitQ is a FIFO queue of parked processes, the building block for
// condition-style blocking (mailboxes, flow-control windows, barriers).
//
// The queue is a slice with a head cursor: dequeues advance head, removals
// (timeouts, kills) tombstone their slot via the index cached on the Proc,
// so both WakeOne and remove are O(1). The backing slice is recycled each
// time the queue drains, so a steady park/wake cycle allocates nothing.
type WaitQ struct {
	sim   *Sim
	name  string
	procs []*Proc // procs[head:] holds waiters in FIFO order; nil = removed
	head  int     // index of the longest-waiting live entry
	n     int     // number of live (non-nil) entries
}

// NewWaitQ creates a named wait queue.
func (s *Sim) NewWaitQ(name string) *WaitQ {
	return &WaitQ{sim: s, name: name}
}

// enqueue appends p and records its slot for O(1) removal.
func (q *WaitQ) enqueue(p *Proc) {
	p.wqIdx = len(q.procs)
	q.procs = append(q.procs, p)
	q.n++
}

// Park suspends p until another process calls WakeOne or WakeAll.
func (q *WaitQ) Park(p *Proc) {
	p.parkSeq++
	p.wq = q
	q.enqueue(p)
	p.park()
	p.wq = nil
}

// ParkTimeout parks p until woken or until d elapses, whichever comes first.
// It reports true if the process was woken normally and false on timeout.
// The timer and a WakeOne/WakeAll/Kill race for the wake; whoever dequeues
// the process first owns it, so the process is never woken twice.
func (q *WaitQ) ParkTimeout(p *Proc, d Dur) bool {
	p.parkSeq++
	p.wq = q
	seq := p.parkSeq
	q.enqueue(p)
	timedOut := false
	q.sim.After(d, func() {
		// The parkSeq check makes a timer from an earlier, already-woken
		// park harmless even if p has since re-parked on this queue.
		if p.wq == q && p.parkSeq == seq && q.remove(p) {
			timedOut = true
			p.wq = nil
			p.wake(q.sim.now)
		}
	})
	p.park()
	p.wq = nil
	return !timedOut
}

// remove deletes p from the queue without waking it, reporting whether it
// was queued. The slot index cached at enqueue makes this O(1); the identity
// check rejects stale indexes left over from earlier parks.
func (q *WaitQ) remove(p *Proc) bool {
	if p.wqIdx < q.head || p.wqIdx >= len(q.procs) || q.procs[p.wqIdx] != p {
		return false
	}
	q.procs[p.wqIdx] = nil
	q.n--
	q.compact()
	return true
}

// WakeOne resumes the longest-waiting parked process, if any, at the current
// time. It reports whether a process was woken.
func (q *WaitQ) WakeOne() bool {
	for q.head < len(q.procs) {
		p := q.procs[q.head]
		q.procs[q.head] = nil
		q.head++
		if p != nil {
			q.n--
			q.compact()
			p.wake(q.sim.now)
			return true
		}
	}
	q.compact()
	return false
}

// WakeAll resumes every parked process at the current time and returns how
// many were woken.
func (q *WaitQ) WakeAll() int {
	woken := 0
	now := q.sim.now
	for i := q.head; i < len(q.procs); i++ {
		if p := q.procs[i]; p != nil {
			p.wake(now)
			woken++
		}
	}
	q.procs = q.procs[:0]
	q.head = 0
	q.n = 0
	return woken
}

// compact recycles the backing slice once the queue drains, so the next
// park reuses slot 0 instead of growing the slice forever.
func (q *WaitQ) compact() {
	if q.n == 0 {
		q.procs = q.procs[:0]
		q.head = 0
	}
}

// Len returns the number of parked processes.
func (q *WaitQ) Len() int { return q.n }
