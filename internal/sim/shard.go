package sim

import (
	"gamma/internal/trace"
)

// Shard is one partition of a simulation: a private event heap and clock
// plus the Resources, WaitQs, and Procs homed on it. An unpartitioned
// simulation is exactly one shard (shard 0). Under the window scheduler a
// shard's entire state is touched only by the worker currently running its
// window; cross-shard sends are staged in the sender's private outbox and
// moved into the destination heaps by the coordinator between windows, so
// the kernel runs its parallel windows with no locks at all.
type Shard struct {
	id int
	s  *Sim

	events eventHeap
	now    Time
	stamp  uint64 // per-shard scheduling counter (ord source when lookahead > 0)
	// horizon is the latest completion of work nobody waits for
	// (Resource.UseAsync) and elided counts those completions: they never
	// visit the calendar, but Run's final clock covers them and Executed
	// counts them.
	horizon Time
	elided  uint64

	// Process bookkeeping: live lists the shard's processes that have not
	// exited (Close unwinds them), parked counts those waiting for a wake.
	live    []*Proc
	parked  int
	failure *procPanic // first panic escaped from a process or event on this shard

	executed uint64
	resumes  uint64 // switches into a process (see Sim.Resumes)

	// Earliest-output-time (EOT) state, read by the window scheduler at
	// each barrier (see Sim.runWindows).
	//
	// quiet is the shard's standing promise: it will initiate no
	// cross-shard send before this absolute instant. Raised by Promise,
	// enforced at the send site, and it expires naturally as the shard's
	// clock reaches it. promised counts Promise calls for WindowStats.
	quiet    Time
	promised uint64
	// outFloor and chanFloor are the shard's declared delivery floors:
	// every cross-shard send from this shard arrives at least
	// max(lookahead, outFloor) after the sender's clock — or the
	// per-destination chanFloor entry toward destinations that declare a
	// larger one. Both are raise-only (see SetOutFloor).
	outFloor  Dur
	chanFloor map[int]Dur
	maxChan   Dur // largest chanFloor entry; the scheduler skips the exact per-destination terms when no entry exceeds the base floor

	// outbox stages the cross-shard sends this shard makes during a
	// parallel window, bucketed per destination with pooled buffers.
	outbox outbox

	// grp is the fusion group this shard currently belongs to under the
	// window scheduler (see fusion.go); rebuilt by the coordinator between
	// windows, read by schedule to route intra-group sends directly.
	grp *group

	// Window-scoped trace state: events emitted while firing are buffered
	// with the firing event's key; the coordinator merges every buffered
	// event that can no longer be preceded into the sink at each barrier
	// (ragged EOT windows leave a tail buffered across barriers).
	tbuf      []trace.Keyed
	firingOrd uint64
	emitIdx   int
	bound     Time   // exclusive upper time bound of the current window
	wEvents   uint64 // events fired inside parallel windows (WindowStats)
}

func newShard(s *Sim, id int) *Shard {
	return &Shard{id: id, s: s}
}

// ID returns the shard's index (0 for the default shard).
func (sh *Shard) ID() int { return sh.id }

// Sim returns the simulation the shard belongs to.
func (sh *Shard) Sim() *Sim { return sh.s }

// Now returns the shard's view of the current simulated time: its own
// clock inside a parallel window, the global clock otherwise.
func (sh *Shard) Now() Time { return sh.s.clockOf(sh) }

// At schedules fn at absolute time t on this shard, from this shard's
// context. Safe in every execution mode; inside a parallel window the
// caller must be executing on this shard.
func (sh *Shard) At(t Time, fn func()) { sh.s.schedule(sh, sh, t, nil, fn) }

// After schedules fn d from now on this shard.
func (sh *Shard) After(d Dur, fn func()) { sh.At(sh.Now()+d, fn) }

// Send schedules fn at absolute time t on shard dst, from this shard's
// context. With positive lookahead t must be at least the sender's clock
// plus the effective channel floor — the declared lookahead raised by the
// sender's output floor and any per-channel floor toward dst (the
// conservative contract; violations panic). During a parallel window the
// event is staged in this shard's outbox and becomes visible at the next
// barrier.
func (sh *Shard) Send(dst *Shard, t Time, fn func()) { sh.s.schedule(sh, dst, t, nil, fn) }

// Spawn starts fn as a new process homed on this shard at the shard's
// current time, from this shard's context.
func (sh *Shard) Spawn(name string, fn func(p *Proc)) *Proc {
	return sh.s.spawnOn(sh, sh.Now(), name, fn)
}

// Emit forwards a structured event to the sink, attributed to this shard —
// safe in every execution mode, including parallel windows.
func (sh *Shard) Emit(e trace.Event) { sh.s.emitOn(sh, e) }

// Promise asserts that this shard will initiate no cross-shard send before
// absolute time t: the model knows what it is occupied with until then — a
// disk service in flight, a computation burst, a control-path gap — and the
// EOT window scheduler may extend every other shard's window past this
// shard's next local event accordingly. A promise is raise-only while
// pending (Promise with t at or below the current promise, or in the past,
// is a no-op) and expires naturally once the shard's clock reaches it; a
// cross-shard send initiated while the clock is still short of the promise
// panics, like any other conservative-contract violation. Promises only
// influence scheduling under positive lookahead, but they are legal — and
// identically counted — in every execution mode, so a model that promises
// stays byte-identical between the serial oracle and parallel windows.
func (sh *Shard) Promise(t Time) {
	sh.promised++
	if t > sh.quiet {
		sh.quiet = t
	}
}

// Promised returns the shard's current promise: the earliest instant it may
// initiate a cross-shard send (zero when it never promised or every promise
// has expired into the past).
func (sh *Shard) Promised() Time { return sh.quiet }

// SetOutFloor declares that every cross-shard send initiated by this shard
// arrives at least d after the sender's clock — a per-sender delivery floor
// the model can prove (the nose network floors every remote arrival at
// Net.MinLatency, whatever the simulation's declared lookahead). The window
// scheduler adds the floor to the shard's earliest output time when bounding
// its neighbors, and the send site enforces it. Raise-only: a smaller d is
// ignored, because neighbors may already hold windows computed from the
// higher floor — lowering a declared floor can never be proven safe.
func (sh *Shard) SetOutFloor(d Dur) {
	if d > sh.outFloor {
		sh.outFloor = d
	}
}

// OutFloor returns the declared per-sender delivery floor.
func (sh *Shard) OutFloor() Dur { return sh.outFloor }

// SetChannelFloor declares a per-channel delivery floor: sends from this
// shard to dst arrive at least d after the sender's clock. It refines
// SetOutFloor for one destination (the effective floor of a send is the
// largest of the lookahead, the output floor, and the channel floor), which
// lets a model with one slow link and many fast ones grant large windows
// across the slow channel without overstating the fast ones. Raise-only,
// like SetOutFloor. Declaring a floor toward the shard itself is a no-op —
// same-shard scheduling is unconstrained.
func (sh *Shard) SetChannelFloor(dst *Shard, d Dur) {
	if dst == sh {
		return
	}
	if d > sh.chanFloor[dst.id] {
		if sh.chanFloor == nil {
			sh.chanFloor = make(map[int]Dur)
		}
		sh.chanFloor[dst.id] = d
		if d > sh.maxChan {
			sh.maxChan = d
		}
	}
}

// baseFloor returns the shard's generic output floor: the declared
// lookahead raised by its output floor (per-channel floors can only raise
// it further toward specific destinations, so this is the minimum over all
// outgoing channels).
func (sh *Shard) baseFloor() Dur {
	if sh.outFloor > sh.s.lookahead {
		return sh.outFloor
	}
	return sh.s.lookahead
}

// floorTo returns the effective conservative floor on sends from sh to dst:
// the declared lookahead raised by the shard's output floor and any
// per-channel floor toward dst.
func (sh *Shard) floorTo(dst *Shard) Dur {
	f := sh.s.lookahead
	if sh.outFloor > f {
		f = sh.outFloor
	}
	if sh.chanFloor != nil {
		if cf := sh.chanFloor[dst.id]; cf > f {
			f = cf
		}
	}
	return f
}

// outbox stages one window's cross-shard sends, bucketed by destination
// shard. Destination buckets and the active list are pooled, so a steady
// message rate allocates nothing after the first few windows, and the
// structure is strictly shard-private: the owner appends during its window,
// the coordinator drains between windows. Replacing the old mutex-guarded
// per-destination inbox with sender-side batching removed the last lock
// from the kernel.
type outbox struct {
	idx []int32   // idx[dst] = bucket index + 1; 0 = dst inactive this window
	dst []int32   // active destination shard ids, in first-send order
	evs [][]event // evs[k] holds the window's events for destination dst[k]
}

// put stages e for delivery to shard dst, opening a bucket on first use.
func (o *outbox) put(nshards, dst int, e event) {
	if len(o.idx) < nshards {
		o.idx = append(o.idx, make([]int32, nshards-len(o.idx))...)
	}
	k := o.idx[dst]
	if k == 0 {
		o.dst = append(o.dst, int32(dst))
		if len(o.evs) < len(o.dst) {
			o.evs = append(o.evs, nil)
		}
		k = int32(len(o.dst))
		o.idx[dst] = k
	}
	o.evs[k-1] = append(o.evs[k-1], e)
}
