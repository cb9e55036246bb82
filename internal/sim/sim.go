// Package sim implements a deterministic discrete-event simulation kernel.
//
// Simulated activities ("processes") are runtime coroutines (iter.Pull): the
// kernel resumes one with next, it parks with yield, and either is a direct
// switch between two goroutines that bypasses the Go scheduler. Exactly one
// of them — the event loop or a single process — executes at any moment, so
// process code needs no locking and every run is deterministic. Processes
// advance the virtual clock only by blocking in kernel primitives (Sleep,
// Resource.Use, WaitQ.Park); pure computation takes zero simulated time
// unless it is explicitly charged to a Resource.
//
// A simulation is one event calendar in (time, push order): events at equal
// times fire in the order they were scheduled. The kernel is the substrate on
// which the Gamma and Teradata machine models are built: CPUs, disks, and
// network interfaces are Resources, and operator processes are Procs.
package sim

import (
	"fmt"
	"iter"
	"sync/atomic"

	"gamma/internal/trace"
)

// Time is a point in simulated time, in microseconds since Run started.
type Time int64

// Dur is a span of simulated time, in microseconds.
type Dur = Time

// Common durations.
const (
	Microsecond Dur = 1
	Millisecond Dur = 1000
	Second      Dur = 1000000
)

// infTime is an unreachable deadline (Run's "no deadline" sentinel).
const infTime = Time(1) << 62

// Seconds converts a simulated time span to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Sim is a discrete-event simulation instance. The zero value is not usable;
// create one with New.
type Sim struct {
	events calendar
	now    Time

	running bool // inside Run or RunUntil
	closed  bool // Close was called; the simulation cannot run again

	// horizon is the latest completion of work nobody waits for
	// (Resource.UseAsync) and elided counts those completions: they never
	// visit the calendar, but Run's final clock covers them and Executed
	// counts them.
	horizon Time
	elided  uint64

	// Process bookkeeping: live lists the processes that have not exited
	// (Close unwinds them), parked counts those waiting for a wake.
	live    []*Proc
	parked  int
	failure *procPanic // first panic escaped from a process or event

	executed uint64
	resumes  uint64 // switches into a process (see Resumes)

	counter *atomic.Int64 // optional shared executed-event counter
	flushed uint64        // the executed count counter already holds
	sink    trace.Sink
}

// New returns an empty simulation with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// SetSink installs a structured event sink (typically a *trace.Collector)
// that receives typed records from the kernel and every model built on it;
// nil disables structured tracing.
func (s *Sim) SetSink(sink trace.Sink) { s.sink = sink }

// Sink returns the installed structured event sink, or nil.
func (s *Sim) Sink() trace.Sink { return s.sink }

// Emit forwards a structured event to the sink, if one is installed.
// Emitters that compute event fields eagerly should check Tracing first.
func (s *Sim) Emit(e trace.Event) {
	if s.sink != nil {
		s.sink.Emit(e)
	}
}

// Tracing reports whether a structured event sink is installed.
func (s *Sim) Tracing() bool { return s.sink != nil }

// At schedules fn to run at absolute time t (clamped to now). It is the
// single ordering point of the kernel: every callback, wake and spawn passes
// through here, and fires after every event scheduled before it for the same
// or an earlier time.
func (s *Sim) At(t Time, fn func()) {
	s.events.push(max(t, s.now), fn)
}

// After schedules fn to run d from now.
func (s *Sim) After(d Dur, fn func()) { s.At(s.now+d, fn) }

// Proc is a simulated process: a coroutine scheduled cooperatively by the
// kernel. All Proc methods must be called from the process's own goroutine,
// except Kill, which is called from kernel context.
type Proc struct {
	sim  *Sim
	name string
	// The coroutine (see Spawn): next runs the process until it parks or
	// exits, yield parks it, stop makes a parked yield return false.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	liveIdx int // slot in sim.live; -1 once the process has exited
	killed  bool
	wq      *WaitQ // wait queue the process is parked on, if any
	wqIdx   int    // slot in wq.procs, cached for O(1) removal
	parkSeq uint64 // increments per park; lets timed wakes detect staleness
	// fire is p's wake event, the fireWake method bound once at spawn.
	fire func()
	// step is the itinerary the process handed to the kernel (see Steps); while
	// it is set, the process's pending wake event runs the next stage instead
	// of resuming the process.
	step func() (at Time, more bool)
}

// Sim returns the simulation the process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.sim.now }

// Emit forwards a structured event to the sink, if one is installed.
func (p *Proc) Emit(e trace.Event) { p.sim.Emit(e) }

// park suspends the process until some event calls wake: it switches back to
// the event loop and returns at the next resume, unless the process was
// killed or the simulation closed in the meantime.
func (p *Proc) park() {
	p.sim.parked++
	if !p.yield(struct{}{}) || p.killed {
		panic(killSentinel{})
	}
}

// killSentinel unwinds a process that was killed or was parked at Close; the
// spawn wrapper absorbs it so either is a clean exit, not a failure.
type killSentinel struct{}

// Kill terminates the process: if it is parked it is unwound the next time
// it would resume (immediately when parked on a WaitQ; at its pending wake
// when sleeping or queued on a Resource), and if it has not started yet its
// body never runs. Must be called from kernel context (an event function or
// another process). Killing a dead or already-killed process is a no-op.
func (p *Proc) Kill() {
	if p.killed {
		return
	}
	p.killed = true
	// A process WakeOne has already dequeued has its wake pending: that wake
	// unwinds it, and a second one would resume a finished coroutine.
	if p.wq != nil && p.wq.remove(p) {
		p.wq = nil
		p.wake(p.sim.now)
	}
}

// wake schedules the process to resume at time t. It must be called exactly
// once per park, from kernel context. The event carries p's fire method,
// bound at spawn, so a park/wake cycle allocates no closure.
func (p *Proc) wake(t Time) { p.sim.At(t, p.fire) }

// fireWake is p's wake event: it switches to p until p parks again or exits —
// unless p is part-way through an itinerary (Steps), whose next stage runs
// here instead. The only place a process is resumed.
func (p *Proc) fireWake() {
	if p.step != nil && !p.killed {
		p.wq = nil // whatever woke p dequeued it
		if at, more := p.step(); more {
			if at != queued {
				p.wake(at)
			}
			return
		}
		p.step = nil
	}
	s := p.sim
	s.parked--
	s.resumes++
	p.next()
}

// Sleep advances the process's virtual time by d.
func (p *Proc) Sleep(d Dur) {
	p.wake(p.sim.now + d)
	p.park()
}

// Steps runs an itinerary — a chain of timed stages such as Resource.Reserve
// calls — on p's behalf while p stays parked. step is called at once and then
// again at each instant it returns, in kernel context, as the event that would
// have resumed p had the stage blocked it (Resource.Use, Sleep); p continues
// at the instant step reports more == false, in that same firing. A call
// performs the work due at that instant, reserves the next stage and returns
// its completion; with more == false the time is ignored.
//
// Each stage is scheduled when the blocking form would have scheduled it —
// right after step returns — so an itinerary and its blocking twin produce the
// same events in the same calendar order, the same trace and the same Executed
// count; only the resumes differ (see Sim.Resumes): one per Steps call instead
// of one per stage. Between stages the itinerary is an ordinary pending
// event: RunUntil may stop with it outstanding, and Close unwinds the parked
// process and never runs another stage. A process killed mid-itinerary
// unwinds at the firing that would have run the next stage, which then never
// reserves.
//
// A stage may also queue p on a wait queue (WaitQ.ParkStep) instead of
// reserving: no wake is scheduled for it, and the WakeOne or WakeAll that
// dequeues p runs the next stage, as the blocking Park would have resumed p.
//
// step must not block (no Use, Sleep, Park or nested Steps).
func (p *Proc) Steps(step func() (at Time, more bool)) {
	at, more := step()
	if !more {
		return
	}
	p.step = step
	if at != queued {
		p.wake(at)
	}
	p.park()
}

// Spawn starts fn as a new process at the current simulated time. The
// coroutine starts lazily: the start event's resume is an ordinary wake. A
// panic in fn becomes the simulation's failure, which the event loop
// rethrows; so does a runtime.Goexit, which iter.Pull also repeats in the
// resuming goroutine.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, liveIdx: len(s.live)}
	p.fire = p.fireWake
	s.live = append(s.live, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		returned := false
		defer func() {
			s.retire(p)
			r := recover()
			if r == nil && !returned {
				r = "runtime.Goexit called"
			}
			if r != nil && r != any(killSentinel{}) {
				s.fail(name, r)
			}
		}()
		if !p.killed {
			fn(p)
		}
		returned = true
	})
	s.parked++
	p.wake(s.now)
	return p
}

// procPanic is the simulation's recorded failure.
type procPanic struct {
	name string
	val  any
}

func (e *procPanic) String() string { return fmt.Sprintf("process %q panicked: %v", e.name, e.val) }

// fail records a failure unless one is already recorded: a second failure,
// such as one raised while unwinding, never masks the first.
func (s *Sim) fail(name string, val any) {
	if s.failure == nil {
		s.failure = &procPanic{name: name, val: val}
	}
}

// retire takes p off the list of live processes.
func (s *Sim) retire(p *Proc) {
	if i := p.liveIdx; i >= 0 {
		n := len(s.live) - 1
		last := s.live[n]
		s.live[i], last.liveIdx = last, i
		s.live[n] = nil
		s.live = s.live[:n]
		p.liveIdx = -1
	}
}

// fireSerial advances the clock to e and runs it in kernel context: a wake
// event resumes its process (Proc.fireWake), any other is a callback.
func (s *Sim) fireSerial(e event) {
	s.now = e.at
	s.executed++
	e.fn()
	if s.failure != nil {
		panic(s.failure.String())
	}
}

// Run executes events until none remain, advances the clock past every
// outstanding UseAsync completion, and returns the final clock value. It
// panics if a process panicked, or if live processes remain parked with no
// pending events (a simulated deadlock); a run that ends that way closes the
// simulation (see Close).
func (s *Sim) Run() Time {
	completed := false
	defer s.endRun(&completed)
	s.runSerial(infTime)
	s.now = max(s.now, s.horizon)
	if s.parked > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events", s.parked))
	}
	s.flushCounter()
	completed = true
	return s.now
}

// RunUntil executes events with timestamps <= deadline and advances the
// clock to deadline, whether or not UseAsync completions lie beyond it; a
// later Run still ends past them. Parked processes may legitimately remain.
func (s *Sim) RunUntil(deadline Time) Time {
	completed := false
	defer s.endRun(&completed)
	s.runSerial(deadline)
	s.now = max(s.now, deadline)
	s.flushCounter()
	completed = true
	return s.now
}

// endRun is deferred by Run and RunUntil: a run that exits by panic or
// Goexit abandons the simulation, so its processes are unwound.
func (s *Sim) endRun(completed *bool) {
	if !*completed {
		s.Close()
	}
}

// Close abandons the simulation: every live process — not yet started,
// sleeping, parked on a WaitQ, queued on a Resource — is unwound as if
// killed, so its deferred functions run and its goroutine exits. A failure
// raised while unwinding never replaces an earlier one. Close is idempotent,
// must be called from outside Run, and leaves the simulation unrunnable.
func (s *Sim) Close() {
	if s.running {
		panic("sim: Close called from inside Run")
	}
	s.closed = true
	for n := len(s.live); n > 0; n = len(s.live) {
		p := s.live[n-1]
		s.retire(p)
		p.stop()
	}
	s.parked = 0
}

// runSerial fires events in calendar order on the calling goroutine until
// the calendar drains or every pending event lies beyond the deadline.
func (s *Sim) runSerial(deadline Time) {
	if s.closed {
		panic("sim: Run on a closed simulation")
	}
	s.running = true
	defer func() { s.running = false }()
	c := &s.events
	for c.head < c.tail && c.ev[c.head].at <= deadline {
		s.fireSerial(c.pop())
	}
}

// Executed returns the number of events retired so far: every process wake
// and callback fired, plus every UseAsync completion. A completion is retired
// without visiting the calendar, so a model's Executed count does not depend
// on whether its unawaited work is scheduled or elided.
func (s *Sim) Executed() uint64 { return s.executed + s.elided }

// Resumes returns the number of times the kernel has switched to a process
// since the simulation was created: one per spawn and one per wake that a
// process was actually resumed for. The stages of an itinerary (Proc.Steps)
// fire as events and count in Executed, but only its end is a resume.
func (s *Sim) Resumes() uint64 { return s.resumes }

// SetEventCounter installs a shared counter that accumulates the number of
// events this simulation fires; Run and RunUntil flush into it on return.
// The bench runner uses one counter per experiment to report simulated
// events/sec even when an experiment runs many sims across goroutines.
// Elided completions cost the host nothing and are left out.
func (s *Sim) SetEventCounter(c *atomic.Int64) { s.counter = c }

// flushCounter adds the events fired since the last flush to the shared
// event counter. It leaves Executed alone: the watermark, not a reset, keeps
// the next flush a delta.
func (s *Sim) flushCounter() {
	if s.counter != nil && s.executed > s.flushed {
		s.counter.Add(int64(s.executed - s.flushed))
		s.flushed = s.executed
	}
}
