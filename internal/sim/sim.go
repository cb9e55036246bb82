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
// A simulation is one event calendar: one heap ordered by (time, ord), where
// ord is a global schedule counter, so events at equal times fire in the
// order they were scheduled. The kernel is the substrate on which the Gamma
// and Teradata machine models are built: CPUs, disks, and network interfaces
// are Resources, and operator processes are Procs.
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

// FromSeconds converts floating-point seconds to a simulated duration.
func FromSeconds(s float64) Dur { return Dur(s * float64(Second)) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Sim is a discrete-event simulation instance. The zero value is not usable;
// create one with New.
type Sim struct {
	events eventHeap
	now    Time
	seq    uint64 // the ord of the latest scheduling action

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

// schedule enqueues an event at time at (clamped to now). It is the single
// ordering point of the kernel: every At, wake, and spawn passes through
// here and draws the next ord.
func (s *Sim) schedule(at Time, p *Proc, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, ord: s.seq, p: p, fn: fn})
}

// At schedules fn to run at absolute time t (clamped to now).
func (s *Sim) At(t Time, fn func()) { s.schedule(t, nil, fn) }

// After schedules fn to run d from now.
func (s *Sim) After(d Dur, fn func()) { s.At(s.now+d, fn) }

// Proc is a simulated process: a coroutine scheduled cooperatively by the
// kernel. All Proc methods must be called from the process's own goroutine,
// except Kill, which is called from kernel context.
type Proc struct {
	sim  *Sim
	name string
	// The coroutine (see spawnOn): next runs the process until it parks or
	// exits, yield parks it, stop makes a parked yield return false.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	liveIdx int // slot in sim.live; -1 once the process has exited
	killed  bool
	wq      *WaitQ // wait queue the process is parked on, if any
	wqIdx   int    // slot in wq.procs, cached for O(1) removal
	parkSeq uint64 // increments per park; lets timed wakes detect staleness
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
	if p.wq != nil {
		p.wq.remove(p)
		p.wq = nil
		p.wake(p.sim.now)
	}
}

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// wake schedules the process to resume at time t. It must be called exactly
// once per park, from kernel context. The event carries the process directly
// — the event loop performs the hand-off itself, so a park/wake cycle
// allocates no closure.
func (p *Proc) wake(t Time) { p.sim.schedule(t, p, nil) }

// Sleep advances the process's virtual time by d.
func (p *Proc) Sleep(d Dur) {
	p.wake(p.sim.now + d)
	p.park()
}

// WaitUntil blocks the process until absolute time t (no-op if t has passed).
// It is the synchronization half of Resource.UseAsync: issue work early,
// then wait for its completion time when the result is needed.
func (p *Proc) WaitUntil(t Time) {
	if now := p.sim.now; t > now {
		p.Sleep(t - now)
	}
}

// Steps runs an itinerary — a chain of timed stages such as Resource.Reserve
// calls — on p's behalf while p stays parked. step is called at once and then
// again at each instant it returns, in kernel context, as the event that would
// have resumed p had the stage blocked it (Resource.Use, Sleep); p continues
// at the instant step reports more == false, in that same firing. A call
// performs the work due at that instant, reserves the next stage and returns
// its completion; with more == false the time is ignored.
//
// Each stage draws its ord when the blocking form would have drawn it — right
// after step returns — so an itinerary and its blocking twin produce the same
// events with the same (at, ord) keys, the same trace and the same Executed
// count; only the resumes differ (see Sim.Resumes): one per Steps call instead
// of one per stage. Between stages the itinerary is an ordinary pending
// event: RunUntil may stop with it outstanding, and Close unwinds the parked
// process and never runs another stage. A process killed mid-itinerary
// unwinds at the firing that would have run the next stage, which then never
// reserves.
//
// step must not block (no Use, Sleep, Park or nested Steps).
func (p *Proc) Steps(step func() (at Time, more bool)) {
	at, more := step()
	if !more {
		return
	}
	p.step = step
	p.wake(at)
	p.park()
}

// Spawn starts fn as a new process at the current simulated time.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.spawnOn(s.now, name, fn)
}

// SpawnAt starts fn as a new process at absolute simulated time t.
func (s *Sim) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	return s.spawnOn(t, name, fn)
}

// spawnOn starts fn as a process first resumed at time t. The coroutine
// starts lazily: the start event's resume is an ordinary wake. A panic in fn
// becomes the simulation's failure, which the event loop rethrows; so does a
// runtime.Goexit, which iter.Pull also repeats in the resuming goroutine.
func (s *Sim) spawnOn(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, liveIdx: len(s.live)}
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
	p.wake(t)
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

// fireSerial advances the clock to e and dispatches it: a wake event switches
// to its process until it parks again or exits — unless the process is
// part-way through an itinerary (Proc.Steps), whose next stage runs here
// instead — and a callback event runs in kernel context. The only place a
// process is resumed.
func (s *Sim) fireSerial(e event) {
	s.now = e.at
	s.executed++
	if p := e.p; p == nil {
		e.fn()
	} else {
		if p.step != nil && !p.killed {
			if at, more := p.step(); more {
				p.wake(at)
				return
			}
			p.step = nil
		}
		s.parked--
		s.resumes++
		p.next()
	}
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

// runSerial fires events in (at, ord) order on the calling goroutine until
// the calendar drains or every pending event lies beyond the deadline.
func (s *Sim) runSerial(deadline Time) {
	if s.closed {
		panic("sim: Run on a closed simulation")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.events.len() > 0 && s.events.ev[0].at <= deadline {
		s.fireSerial(s.events.pop())
	}
}

// Executed returns the number of events retired so far: every process wake
// and callback fired, plus every UseAsync completion. A completion draws an
// ord like any event and is retired without visiting the calendar, so a
// model's Executed count does not depend on whether its unawaited work is
// scheduled or elided.
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
// event counter.
func (s *Sim) flushCounter() {
	if s.counter != nil && s.executed > 0 {
		s.counter.Add(int64(s.executed))
		s.executed, s.elided = 0, 0
	}
}
