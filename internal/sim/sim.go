// Package sim implements a deterministic discrete-event simulation kernel.
//
// Simulated activities ("processes") are runtime coroutines (iter.Pull): the
// kernel resumes one with next, it parks with yield, and either is a direct
// switch between two goroutines that bypasses the Go scheduler. Within one
// shard, exactly one of them — the shard's event loop or a single process —
// executes at any moment, so process code needs no locking and every run is
// deterministic. Processes advance the virtual clock only by
// blocking in kernel primitives (Sleep, Resource.Use, WaitQ.Park); pure
// computation takes zero simulated time unless it is explicitly charged to
// a Resource.
//
// The kernel is the substrate on which the Gamma and Teradata machine models
// are built: CPUs, disks, and network interfaces are Resources, and operator
// processes are Procs.
//
// # Partitioned execution
//
// A simulation is normally one shard — one event heap, one clock. Partition
// splits it into shards (one per simulated node), each owning a private
// event heap, clock, and the Resources, WaitQs, and Procs homed on it.
// Shards synchronize conservatively: a cross-shard event must be scheduled
// at least the declared lookahead L > 0 after its sender's clock, raised by
// any per-sender output floor (Shard.SetOutFloor) or per-channel floor
// (Shard.SetChannelFloor) the model declares. Run computes each shard's
// earliest output time — its next pending event or its standing promise
// (Shard.Promise), whichever is later — and grants every shard a window
// bounded by the earliest instant any *other* shard could reach it, chained
// reactions included. Safe shards fan across worker goroutines, cross-shard
// sends are staged in sender-private outboxes the coordinator delivers at
// the next barrier, and trace emission is merge-ordered so the sink sees
// exactly the emission order a serial run would produce.
//
// With lookahead 0 (a model that interacts across shards at the same
// instant, like the 1988 Gamma network model) no concurrency is admissible;
// Run executes the shards' heaps in merged global order on one goroutine,
// byte-identical to the unpartitioned kernel. Either way the serialized
// path — Run with Workers <= 1 — is the oracle any worker count must match.
package sim

import (
	"fmt"
	"iter"
	"sort"
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

// shardIDBits is the width of the shard-id field in a lookahead-mode ord:
// the low 20 bits carry the scheduling shard's id, the high 44 bits its
// stamp counter. Up to ~1M shards and ~17T scheduling actions per shard.
const shardIDBits = 20

// Sim is a discrete-event simulation instance. The zero value is not usable;
// create one with New.
type Sim struct {
	shards []*Shard
	sh0    *Shard // shards[0], the default home for untagged objects

	// Partitioning state (see Partition).
	partitioned bool
	lookahead   Dur
	workers     int

	// Serialized-execution state: the global clock, the global schedule
	// counter (the ord source when lookahead is 0), and the shard whose
	// event is currently firing.
	now Time
	seq uint64
	cur *Shard

	// inWindow is true while worker goroutines execute a conservative
	// window in parallel. It is written by the coordinator between
	// barriers only, and every reader is sequenced after the write by the
	// window dispatch channels, so it needs no atomics.
	inWindow bool
	closed   bool // Close was called; the simulation cannot run again

	// dirty collects shards whose heaps received pushes during the current
	// event, so the merged serial loop can refresh its shard-order heap.
	dirty []*Shard
	tops  topHeap

	// streams and cuts are scratch space for the barrier trace flush:
	// streams collects the flushable per-shard prefixes, cuts[id] records
	// each shard's prefix length until the post-merge compaction.
	streams [][]trace.Keyed
	cuts    []int

	// EOT window-scheduler statistics (see WindowStats).
	wWindows      uint64
	wShardWindows uint64
	wShardRounds  uint64
	wGroupWindows uint64
	wFuseOps      uint64
	wSplitOps     uint64
	wcount        *WindowCounters

	// Adaptive shard fusion state (see fusion.go). groups is the window
	// scheduler's current partition of the shards into scheduling units;
	// glevel is the fusion level (group size 2^glevel). The f* fields are
	// the policy's events-per-round accumulator and probe bookkeeping.
	fusion     Fusion
	fuseOn     bool
	groups     []*group
	glevel     int
	fRounds    uint64
	fEvents    uint64
	fProbing   bool
	fProbeWait int
	fBaseLevel int

	executed uint64
	counter  *atomic.Int64 // optional shared executed-event counter
	sink     trace.Sink
}

// New returns an empty, single-shard simulation with the clock at zero.
func New() *Sim {
	s := &Sim{fusion: Fusion{}.withDefaults()}
	s.sh0 = newShard(s, 0)
	s.shards = []*Shard{s.sh0}
	return s
}

// Now returns the current simulated time. In a parallel window shards have
// independent clocks; use Proc.Now or Shard.Now there.
func (s *Sim) Now() Time { return s.now }

// SetSink installs a structured event sink (typically a *trace.Collector)
// that receives typed records from the kernel and every model built on it;
// nil disables structured tracing. Under parallel windows the kernel
// buffers per-shard streams and merges them into the sink at each window
// barrier, so the sink observes exactly the serialized emission order at
// any worker count.
func (s *Sim) SetSink(sink trace.Sink) { s.sink = sink }

// Sink returns the installed structured event sink, or nil.
func (s *Sim) Sink() trace.Sink { return s.sink }

// Emit forwards a structured event to the sink, if one is installed.
// Emitters that compute event fields eagerly should check Tracing first.
// Emit is a serialized-context primitive; inside a parallel window use
// Proc.Emit or Shard.Emit, which route through the emitting shard's
// merge-ordered buffer.
func (s *Sim) Emit(e trace.Event) {
	if s.inWindow {
		panic("sim: Sim.Emit inside a parallel window; use Proc.Emit or Shard.Emit")
	}
	if s.sink != nil {
		s.sink.Emit(e)
	}
}

// Tracing reports whether a structured event sink is installed.
func (s *Sim) Tracing() bool { return s.sink != nil }

// emitOn forwards a structured event attributed to shard sh. During a
// parallel window it is buffered with the firing event's (at, ord) key and
// merged into the sink at the barrier; otherwise it goes straight through.
func (s *Sim) emitOn(sh *Shard, e trace.Event) {
	if s.inWindow {
		if s.sink == nil {
			return
		}
		sh.tbuf = append(sh.tbuf, trace.Keyed{At: int64(sh.now), Ord: sh.firingOrd, Sub: sh.emitIdx, E: e})
		sh.emitIdx++
		return
	}
	if s.sink != nil {
		s.sink.Emit(e)
	}
}

// Partition declares that the simulation will be partitioned into shards
// with the given conservative lookahead: a cross-shard event must be
// scheduled at least lookahead after its sender's clock. Lookahead 0 is
// legal and declares "cross-shard interaction may be instantaneous"; such a
// simulation always executes serialized (in merged global order), because
// no conservative window is safe. Partition must be called before any
// events are scheduled or processes spawned; AddShard then creates one
// shard per simulated node as the model is built.
func (s *Sim) Partition(lookahead Dur) {
	if s.sh0.events.len() > 0 || len(s.sh0.live) > 0 || s.now != 0 || s.seq != 0 {
		panic("sim: Partition must be called on a fresh simulation")
	}
	if lookahead < 0 {
		panic("sim: negative lookahead")
	}
	s.partitioned = true
	s.lookahead = lookahead
}

// Partitioned reports whether Partition has been called.
func (s *Sim) Partitioned() bool { return s.partitioned }

// Lookahead returns the declared conservative lookahead.
func (s *Sim) Lookahead() Dur { return s.lookahead }

// SetWorkers sets the number of worker goroutines Run may use to execute
// conservative windows in parallel. It only takes effect on a partitioned
// simulation with positive lookahead; otherwise Run stays serialized (the
// oracle path). n <= 1 selects serialized execution explicitly.
func (s *Sim) SetWorkers(n int) { s.workers = n }

// AddShard creates a new shard (partition) and returns its handle. Only
// valid on a partitioned simulation.
func (s *Sim) AddShard() *Shard {
	if !s.partitioned {
		panic("sim: AddShard on an unpartitioned simulation (call Partition first)")
	}
	sh := newShard(s, len(s.shards))
	if sh.id >= 1<<shardIDBits {
		panic("sim: too many shards")
	}
	s.shards = append(s.shards, sh)
	return sh
}

// DefaultShard returns shard 0, the home of every object not explicitly
// created on a shard.
func (s *Sim) DefaultShard() *Shard { return s.sh0 }

// Shards returns the number of shards (1 for an unpartitioned simulation).
func (s *Sim) Shards() int { return len(s.shards) }

// ctxShard resolves the scheduling context of a context-free primitive
// (At/After/Spawn): the shard whose event is currently firing, or shard 0
// during setup. Context-free primitives cannot attribute themselves inside
// a parallel window; shard- and proc-scoped methods exist for that.
func (s *Sim) ctxShard() *Shard {
	if s.inWindow {
		panic("sim: context-free scheduling (At/After/Spawn) inside a parallel window; use Shard or Proc methods")
	}
	if s.cur != nil {
		return s.cur
	}
	return s.sh0
}

// clockOf returns the scheduling context's view of "now": the shard clock
// inside a parallel window, the global clock otherwise.
func (s *Sim) clockOf(sh *Shard) Time {
	if s.inWindow {
		return sh.now
	}
	return s.now
}

// schedule enqueues an event on shard home, stamped from scheduling context
// src. It is the single ordering point of the kernel: every At, wake, and
// spawn passes through here, and the (at, ord) keys it assigns are
// identical whether the run is serialized or windowed — per-shard stamp
// counters advance with the shard's own deterministic execution, never with
// wall-clock scheduling.
func (s *Sim) schedule(src, home *Shard, at Time, p *Proc, fn func()) {
	if now := s.clockOf(src); at < now {
		at = now
	}
	ord := s.nextOrd(src)
	if s.lookahead > 0 && home != src {
		// The conservative contract, checked identically in serialized and
		// windowed execution so the oracle and the parallel run agree on
		// every violation: the sender must be past its standing promise, and
		// the event must respect the effective channel floor (lookahead
		// raised by output/per-channel floors).
		now := s.clockOf(src)
		if now < src.quiet {
			panic(fmt.Sprintf("sim: cross-shard send from shard %d to shard %d at clock %v violates the shard's promise of no output before %v",
				src.id, home.id, now, src.quiet))
		}
		if floor := src.floorTo(home); at < now+floor {
			panic(fmt.Sprintf("sim: cross-shard event from shard %d to shard %d at %v violates lookahead %v (sender clock %v)",
				src.id, home.id, at, floor, now))
		}
	}
	e := event{at: at, ord: ord, p: p, fn: fn}
	if s.inWindow && home != src {
		if g := src.grp; g != nil && g == home.grp {
			// Intra-group send under fusion: deliver straight into the
			// member's heap so it can fire inside the same merged window —
			// the arrival is at least one positive floor past the sender's
			// clock, so it sorts strictly after the group's current merged
			// position (see runGroupMerged).
			home.events.push(e)
			g.dirty = append(g.dirty, home)
			return
		}
		src.outbox.put(len(s.shards), home.id, e)
		return
	}
	home.events.push(e)
	if len(s.shards) > 1 && !s.inWindow && home != s.cur {
		// Pushes to the currently firing shard need no dirty entry: the
		// merged serial loop re-registers the fired shard unconditionally.
		s.dirty = append(s.dirty, home)
	}
}

// nextOrd draws the next tie-break key from scheduling context src: the
// shard's stamp counter composed with its id under positive lookahead, else
// the single global schedule counter — exactly the pre-partitioning kernel's
// FIFO-among-equal-times order.
func (s *Sim) nextOrd(src *Shard) uint64 {
	if s.lookahead > 0 {
		src.stamp++
		return src.stamp<<shardIDBits | uint64(src.id)
	}
	s.seq++
	return s.seq
}

// At schedules fn to run at absolute time t (clamped to now) on the
// scheduling context's shard.
func (s *Sim) At(t Time, fn func()) {
	sh := s.ctxShard()
	s.schedule(sh, sh, t, nil, fn)
}

// After schedules fn to run d from now.
func (s *Sim) After(d Dur, fn func()) { s.At(s.now+d, fn) }

// Proc is a simulated process: a coroutine scheduled cooperatively by its
// home shard. All Proc methods must be called from the process's own
// goroutine, except Kill, which is called from kernel context.
type Proc struct {
	sim   *Sim
	shard *Shard
	name  string
	// The coroutine (see spawnOn): next runs the process until it parks or
	// exits, yield parks it, stop makes a parked yield return false.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	liveIdx int // slot in shard.live; -1 once the process has exited
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

// Shard returns the process's home shard.
func (p *Proc) Shard() *Shard { return p.shard }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time as the process observes it: its
// shard's clock inside a parallel window, the global clock otherwise.
func (p *Proc) Now() Time { return p.sim.clockOf(p.shard) }

// Emit forwards a structured event to the sink, attributed to the process's
// shard — safe in every execution mode, including parallel windows.
func (p *Proc) Emit(e trace.Event) { p.sim.emitOn(p.shard, e) }

// park suspends the process until some event calls wake: it switches back to
// the shard's event loop and returns at the next resume, unless the process
// was killed or the simulation closed in the meantime.
func (p *Proc) park() {
	p.shard.parked++
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
// another process). In a parallel window the caller must be on the
// process's own shard. Killing a dead or already-killed process is a no-op.
func (p *Proc) Kill() {
	if p.killed {
		return
	}
	p.killed = true
	if p.wq != nil {
		p.wq.remove(p)
		p.wq = nil
		p.wake(p.sim.clockOf(p.shard))
	}
}

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// wake schedules the process to resume at time t. It must be called exactly
// once per park, from kernel context (an event function or another process
// on the same shard). The event carries the process directly — the shard
// loop performs the hand-off itself, so a park/wake cycle allocates no
// closure.
func (p *Proc) wake(t Time) {
	p.sim.schedule(p.shard, p.shard, t, p, nil)
}

// Sleep advances the process's virtual time by d.
func (p *Proc) Sleep(d Dur) {
	p.wake(p.Now() + d)
	p.park()
}

// WaitUntil blocks the process until absolute time t (no-op if t has passed).
// It is the synchronization half of Resource.UseAsync: issue work early,
// then wait for its completion time when the result is needed.
func (p *Proc) WaitUntil(t Time) {
	if now := p.Now(); t > now {
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
// count in serialized, merged and windowed execution; only the resumes differ
// (see Sim.Resumes): one per Steps call instead of one per stage. Between
// stages the itinerary is an ordinary pending event: RunUntil may stop with it
// outstanding, and Close unwinds the parked process and never runs another
// stage. A process killed mid-itinerary unwinds at the firing that would have
// run the next stage, which then never reserves.
//
// step must not block (no Use, Sleep, Park or nested Steps) and, in a parallel
// window, touches p's shard only, like p itself.
func (p *Proc) Steps(step func() (at Time, more bool)) {
	at, more := step()
	if !more {
		return
	}
	p.step = step
	p.wake(at)
	p.park()
}

// Spawn starts fn as a new process at the current simulated time, homed on
// the scheduling context's shard.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAt(s.now, name, fn)
}

// SpawnAt starts fn as a new process at absolute simulated time t.
func (s *Sim) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	return s.spawnOn(s.ctxShard(), t, name, fn)
}

// SpawnOn starts fn as a new process at the current simulated time, homed
// on shard sh: its events live in sh's heap and it executes under sh's
// hand-off discipline. Serialized contexts only; inside a parallel window
// use Shard.Spawn.
func (s *Sim) SpawnOn(sh *Shard, name string, fn func(p *Proc)) *Proc {
	s.ctxShard() // assert serialized context
	return s.spawnOn(sh, s.now, name, fn)
}

// spawnOn starts fn as a process homed on sh, first resumed at time t. The
// coroutine starts lazily: the start event's resume is an ordinary wake. A
// panic in fn becomes the shard's failure, which the kernel loop rethrows; so
// does a runtime.Goexit, which iter.Pull also repeats in the resuming goroutine.
func (s *Sim) spawnOn(sh *Shard, t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, shard: sh, name: name, liveIdx: len(sh.live)}
	sh.live = append(sh.live, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		returned := false
		defer func() {
			sh.retire(p)
			r := recover()
			if r == nil && !returned {
				r = "runtime.Goexit called"
			}
			if r != nil && r != any(killSentinel{}) {
				sh.fail(name, r)
			}
		}()
		if !p.killed {
			fn(p)
		}
		returned = true
	})
	sh.parked++
	p.wake(t)
	return p
}

// procPanic is a shard's recorded failure.
type procPanic struct {
	name string
	val  any
}

func (e *procPanic) String() string { return fmt.Sprintf("process %q panicked: %v", e.name, e.val) }

// fail records a failure on the shard unless one is already recorded: a
// second failure, such as one raised while unwinding, never masks the first.
func (sh *Shard) fail(name string, val any) {
	if sh.failure == nil {
		sh.failure = &procPanic{name: name, val: val}
	}
}

// retire takes p off its shard's list of live processes.
func (sh *Shard) retire(p *Proc) {
	if i := p.liveIdx; i >= 0 {
		n := len(sh.live) - 1
		last := sh.live[n]
		sh.live[i], last.liveIdx = last, i
		sh.live[n] = nil
		sh.live = sh.live[:n]
		p.liveIdx = -1
	}
}

// fire dispatches one event of shard sh, in every execution mode: a wake
// event switches to its process until it parks again or exits — unless the
// process is part-way through an itinerary (Proc.Steps), whose next stage
// runs here instead — and a callback event runs in kernel context. The only
// place a process is resumed.
func (sh *Shard) fire(e event) {
	p := e.p
	if p == nil {
		e.fn()
		return
	}
	if p.step != nil && !p.killed {
		if at, more := p.step(); more {
			p.wake(at)
			return
		}
		p.step = nil
	}
	sh.parked--
	sh.resumes++
	p.next()
}

// fireSerial fires one event of shard sh in serialized execution.
func (s *Sim) fireSerial(sh *Shard, e event) {
	s.now = e.at
	sh.now = e.at
	s.cur = sh
	s.executed++
	sh.fire(e)
	if sh.failure != nil {
		panic(sh.failure.String())
	}
}

// fireWindow fires one event of shard sh inside a window, on its worker.
func (s *Sim) fireWindow(sh *Shard, e event) {
	sh.now = e.at
	if s.sink != nil {
		// One sentinel per firing (Sub -1, zero Event), whether or not it
		// emits: the barrier merge replays the serialized engine's
		// pick-the-min-pending-head loop, and a non-emitting firing still
		// gates that comparison (see flushWindowTrace). Without a sink the
		// sentinels are elided — the merge has nothing to replay.
		sh.tbuf = append(sh.tbuf, trace.Keyed{At: int64(e.at), Ord: e.ord, Sub: -1})
		sh.firingOrd = e.ord
		sh.emitIdx = 0
	}
	sh.executed++
	sh.wEvents++
	sh.fire(e)
}

// Run executes events until none remain, advances the clock past every
// outstanding UseAsync completion, and returns the final clock value. On a
// partitioned simulation with positive lookahead and Workers > 1, shards
// execute conservative windows on a worker pool; in every other case (the
// oracle path) events fire one at a time in global (at, ord) order. It panics
// if a process panicked, or if live processes remain parked with no pending
// events (a simulated deadlock); a run that ends that way closes the
// simulation (see Close).
func (s *Sim) Run() Time {
	completed := false
	defer s.endRun(&completed)
	if s.partitioned && s.lookahead > 0 && s.workers > 1 && len(s.shards) > 1 {
		s.runWindows()
	} else {
		s.runSerial(infTime)
	}
	// The calendar has drained: the run ends at the latest instant any shard
	// reached or has completion-only work outstanding until.
	end := s.now
	for _, sh := range s.shards {
		end = max(end, sh.now, sh.horizon)
	}
	s.setNow(end)
	if n := s.parkedTotal(); n > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events", n))
	}
	s.flushCounter()
	completed = true
	return s.now
}

// RunUntil executes events with timestamps <= deadline and advances the
// clock to deadline, whether or not UseAsync completions lie beyond it; a
// later Run still ends past them. Parked processes may legitimately remain.
// RunUntil always executes serialized (it is a debugging/driver primitive,
// not the throughput path).
func (s *Sim) RunUntil(deadline Time) Time {
	completed := false
	defer s.endRun(&completed)
	s.runSerial(deadline)
	if s.now < deadline {
		s.setNow(deadline)
	}
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
	if s.cur != nil || s.inWindow {
		panic("sim: Close called from inside Run")
	}
	s.closed = true
	for _, sh := range s.shards {
		for n := len(sh.live); n > 0; n = len(sh.live) {
			p := sh.live[n-1]
			sh.retire(p)
			p.stop()
		}
		sh.parked = 0
	}
}

// setNow advances the global clock and every shard clock to t.
func (s *Sim) setNow(t Time) {
	s.now = t
	for _, sh := range s.shards {
		if sh.now < t {
			sh.now = t
		}
	}
}

// runSerial fires events in global (at, ord) order on the calling
// goroutine until the calendar drains or every pending event lies beyond
// the deadline. One shard uses a tight loop on its heap; several use a
// lazy top-heap merged loop over the per-shard heaps.
func (s *Sim) runSerial(deadline Time) {
	if s.closed {
		panic("sim: Run on a closed simulation")
	}
	defer func() { s.cur = nil }()
	if len(s.shards) == 1 {
		sh := s.sh0
		for sh.events.len() > 0 {
			if t, _ := sh.events.peek(); t > deadline {
				break
			}
			s.fireSerial(sh, sh.events.pop())
		}
		return
	}
	s.rebuildTops()
	for {
		sh, ok := s.minShard(deadline)
		if !ok {
			break
		}
		s.fireSerial(sh, sh.events.pop())
		// Fast path: refire the same shard while no other shard received a
		// push and its next head is still at or below the top heap's
		// minimum. Stale top entries only understate that minimum (a pushed
		// head always has a fresh entry via dirty; the fired shard needs
		// none while it is the one firing), so the comparison may leave the
		// fast path early but never fires out of order. This keeps a query
		// whose activity sits on one shard for a stretch — the common case
		// in the serialized experiments — from paying a heap round trip per
		// event.
		for len(s.dirty) == 0 {
			at, ord, ok := sh.events.head()
			if !ok || at > deadline {
				break
			}
			if len(s.tops) > 0 {
				top := s.tops[0]
				if top.at < at || (top.at == at && top.ord < ord) {
					break
				}
			}
			s.fireSerial(sh, sh.events.pop())
		}
		s.refreshTops(sh)
	}
}

// topEntry orders shards by the key of their earliest pending event.
// Entries are lazy: a shard's heap may have changed since its entry was
// pushed, so entries are validated against the live heap head on pop and
// discarded when stale.
type topEntry struct {
	at  Time
	ord uint64
	sh  *Shard
}

type topHeap []topEntry

func (h topHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].ord < h[j].ord
}

func (h *topHeap) push(e topEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *topHeap) pop() topEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = topEntry{}
	*h = old[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		(*h)[i], (*h)[c] = (*h)[c], (*h)[i]
		i = c
	}
	return top
}

// rebuildTops seeds the shard-order heap from every non-empty shard.
func (s *Sim) rebuildTops() {
	s.tops = s.tops[:0]
	s.dirty = s.dirty[:0]
	for _, sh := range s.shards {
		if at, ord, ok := sh.events.head(); ok {
			s.tops.push(topEntry{at: at, ord: ord, sh: sh})
		}
	}
}

// refreshTops re-registers the fired shard and every shard whose heap
// received pushes during the event, then clears the dirty list.
func (s *Sim) refreshTops(fired *Shard) {
	if at, ord, ok := fired.events.head(); ok {
		s.tops.push(topEntry{at: at, ord: ord, sh: fired})
	}
	for _, sh := range s.dirty {
		if sh == fired {
			continue
		}
		if at, ord, ok := sh.events.head(); ok {
			s.tops.push(topEntry{at: at, ord: ord, sh: sh})
		}
	}
	s.dirty = s.dirty[:0]
}

// minShard returns the shard holding the globally earliest event at or
// before the deadline, discarding stale top entries on the way.
func (s *Sim) minShard(deadline Time) (*Shard, bool) {
	for len(s.tops) > 0 {
		top := s.tops[0]
		at, ord, ok := top.sh.events.head()
		if !ok || at != top.at || ord != top.ord {
			// Stale: the shard's head changed since this entry was pushed.
			// If the shard still has events it also has a fresher entry
			// (pushes refresh via dirty), so dropping is safe.
			s.tops.pop()
			continue
		}
		if at > deadline {
			return nil, false
		}
		s.tops.pop()
		return top.sh, true
	}
	return nil, false
}

// parkedTotal sums parked processes across shards.
func (s *Sim) parkedTotal() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.parked
	}
	return n
}

// Executed returns the number of events retired so far: every process wake
// and callback fired, plus every UseAsync completion. A completion draws an
// ord like any event and is retired without visiting the calendar, so a
// model's Executed count does not depend on whether its unawaited work is
// scheduled or elided.
func (s *Sim) Executed() uint64 {
	n := s.fired()
	for _, sh := range s.shards {
		n += sh.elided
	}
	return n
}

// Resumes returns the number of times the kernel has switched to a process
// since the simulation was created: one per spawn and one per wake that a
// process was actually resumed for. The stages of an itinerary (Proc.Steps)
// fire as events and count in Executed, but only its end is a resume.
func (s *Sim) Resumes() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.resumes
	}
	return n
}

// fired returns the number of events the calendar has fired so far. This is
// the count SetEventCounter accumulates: elided completions cost the host
// nothing and are left out of events per second.
func (s *Sim) fired() uint64 {
	n := s.executed
	for _, sh := range s.shards {
		n += sh.executed
	}
	return n
}

// SetEventCounter installs a shared counter that accumulates the number of
// events this simulation fires; Run and RunUntil flush into it on return.
// The bench runner uses one counter per experiment to report simulated
// events/sec even when an experiment runs many sims across goroutines.
func (s *Sim) SetEventCounter(c *atomic.Int64) { s.counter = c }

// flushCounter adds events fired since the last flush to the shared event
// counter, and window statistics to the shared window counters.
func (s *Sim) flushCounter() {
	if s.counter != nil {
		if n := s.fired(); n > 0 {
			s.counter.Add(int64(n))
			s.executed = 0
			for _, sh := range s.shards {
				sh.executed, sh.elided = 0, 0
			}
		}
	}
	if s.wcount != nil {
		if ws := s.WindowStats(); ws != (WindowStats{}) {
			s.wcount.Add(ws)
			s.wWindows, s.wShardWindows, s.wShardRounds = 0, 0, 0
			s.wGroupWindows, s.wFuseOps, s.wSplitOps = 0, 0, 0
			for _, sh := range s.shards {
				sh.wEvents, sh.promised = 0, 0
			}
		}
	}
}

// WindowStats aggregates the EOT window scheduler's activity for one
// simulation: how many parallel window rounds ran, how full they were, and
// how much promise traffic the model supplied. All fields stay zero on
// serialized runs (the oracle path executes no windows; promises are
// counted but flushed with the rest).
type WindowStats struct {
	Windows      int64 // barrier rounds that dispatched at least one shard
	ShardWindows int64 // shard-window dispatches (occupancy numerator)
	ShardRounds  int64 // rounds × shard count (occupancy denominator)
	WindowEvents int64 // events fired inside parallel windows
	Promises     int64 // Shard.Promise calls
	GroupWindows int64 // group dispatches (== ShardWindows when unfused)
	FuseOps      int64 // adaptive fusion level raises adopted
	SplitOps     int64 // adaptive fusion level drops adopted
}

// Occupancy returns the mean fraction of shards dispatched per window round
// (0 when no windows ran).
func (ws WindowStats) Occupancy() float64 {
	if ws.ShardRounds == 0 {
		return 0
	}
	return float64(ws.ShardWindows) / float64(ws.ShardRounds)
}

// WindowStats returns the scheduler statistics accumulated since the last
// flush into shared WindowCounters (or since the run started, when none are
// installed).
func (s *Sim) WindowStats() WindowStats {
	ws := WindowStats{
		Windows:      int64(s.wWindows),
		ShardWindows: int64(s.wShardWindows),
		ShardRounds:  int64(s.wShardRounds),
		GroupWindows: int64(s.wGroupWindows),
		FuseOps:      int64(s.wFuseOps),
		SplitOps:     int64(s.wSplitOps),
	}
	for _, sh := range s.shards {
		ws.WindowEvents += int64(sh.wEvents)
		ws.Promises += int64(sh.promised)
	}
	return ws
}

// WindowCounters accumulates WindowStats across many simulations; Run and
// RunUntil flush into the installed set on return, mirroring
// SetEventCounter. The bench runner installs one set per experiment so
// -json can report window occupancy even when an experiment runs many sims
// across goroutines.
type WindowCounters struct {
	Windows, ShardWindows, ShardRounds, WindowEvents, Promises atomic.Int64
	GroupWindows, FuseOps, SplitOps                            atomic.Int64
}

// Add folds ws into the counters.
func (c *WindowCounters) Add(ws WindowStats) {
	c.Windows.Add(ws.Windows)
	c.ShardWindows.Add(ws.ShardWindows)
	c.ShardRounds.Add(ws.ShardRounds)
	c.WindowEvents.Add(ws.WindowEvents)
	c.Promises.Add(ws.Promises)
	c.GroupWindows.Add(ws.GroupWindows)
	c.FuseOps.Add(ws.FuseOps)
	c.SplitOps.Add(ws.SplitOps)
}

// Stats returns the accumulated totals.
func (c *WindowCounters) Stats() WindowStats {
	return WindowStats{
		Windows:      c.Windows.Load(),
		ShardWindows: c.ShardWindows.Load(),
		ShardRounds:  c.ShardRounds.Load(),
		WindowEvents: c.WindowEvents.Load(),
		Promises:     c.Promises.Load(),
		GroupWindows: c.GroupWindows.Load(),
		FuseOps:      c.FuseOps.Load(),
		SplitOps:     c.SplitOps.Load(),
	}
}

// SetWindowCounters installs a shared window-statistics accumulator; Run
// and RunUntil flush into it on return and zero the per-sim counters.
func (s *Sim) SetWindowCounters(c *WindowCounters) { s.wcount = c }

// runWindows executes the partitioned simulation with conservative
// earliest-output-time (EOT) windows on a worker pool, in the
// Chandy–Misra–Bryant style. Each barrier the coordinator delivers the
// previous window's staged cross-shard sends, flushes every trace event
// that can no longer be preceded, and computes per-shard window bounds:
//
// A shard's earliest output time is eot_i = max(head_i, quiet_i) — it
// cannot initiate a cross-shard send before its next pending event fires,
// nor before its standing promise (Shard.Promise) expires. A send from i
// arrives no earlier than eot_i + floor(i→dst), where the floor is the
// declared lookahead raised by i's output floor and any per-channel floor.
// But a shard can also *react*: a message arriving at i at time a can
// trigger a send initiated at a, so the true earliest initiation is the
// fixpoint E_i = min(eot_i, min_k≠i(E_k + floor(k→i))). Every chained term
// passes through some first sender's eot + base floor, so with
// vMin = min over all shards of (eot_k + base_k) the understatement
// Ẽ_i = min(eot_i, vMin) ≤ E_i is sound, and shard j may fire every event
// strictly below
//
//	bound_j = min over i≠j of (Ẽ_i + floor(i→j)).
//
// The min is computed as a (min, second-min) pass over the shards without
// per-channel floors — so the frontier shard is bounded by the runner-up
// rather than by itself — followed by exact terms for the few shards that
// declare per-channel floors. bound_j is never below the old static
// T0 + lookahead, and when every other shard is idle or promised far ahead
// it reaches vMin + floor: two floors past the global frontier, which is
// what keeps windows large on fabrics whose latency floor is tiny.
//
// Windows are ragged (each shard has its own bound), so trace emissions are
// buffered per shard and flushed at each barrier only up to the global heap
// floor — below it nothing can fire again, so merged (at, ord, sub) order
// is final. Cross-shard sends made inside a window are staged in the
// sender's private outbox and delivered by the coordinator at the next
// barrier: the parallel phase touches only shard-private state and runs
// with no locks at all.
func (s *Sim) runWindows() {
	if s.closed {
		panic("sim: Run on a closed simulation")
	}
	s.glevel = s.initLevel()
	s.rebuildGroups()
	s.fRounds, s.fEvents = 0, 0
	s.fProbing = false
	s.fProbeWait = s.fusion.ProbePeriods

	nw := s.workers
	if nw > len(s.shards) {
		nw = len(s.shards)
	}
	// Epoch barrier: each round the coordinator publishes the runnable
	// groups and releases min(workers, runnable) tokens; workers claim
	// groups with an atomic cursor and the last engaged worker signals the
	// round done. Compared with a channel-per-group hand-off plus
	// WaitGroup, a thin round costs one token send and one atomic per
	// worker instead of a channel round trip per shard.
	b := &winBarrier{gate: make(chan struct{}, nw), done: make(chan struct{}, 1)}
	for i := 0; i < nw; i++ {
		go func() {
			for range b.gate {
				b.work(s)
			}
		}()
	}
	defer close(b.gate)

	runnable := make([]*group, 0, len(s.shards))
	chanGroups := make([]*group, 0, 4)
	for {
		// Barrier: deliver staged cross-shard sends, then flush every
		// buffered trace event below the global heap floor.
		for _, sh := range s.shards {
			s.drainOutbox(sh)
		}
		t0 := infTime
		for _, sh := range s.shards {
			if t, ok := sh.events.peek(); ok && t < t0 {
				t0 = t
			}
		}
		s.flushWindowTrace(t0)
		if t0 == infTime {
			break
		}

		// Adaptive fusion: between rounds (heaps settled, outboxes empty)
		// the policy may regroup the shards.
		s.fusionTick()

		// vMin: the earliest possible first hop anywhere in the cluster.
		// Bounds are computed per group; at fusion level 0 every group is
		// a singleton and this is exactly the per-shard computation.
		vMin := infTime
		for _, g := range s.groups {
			g.refresh()
			if g.eot != infTime {
				if v := g.eot + g.base; v < vMin {
					vMin = v
				}
			}
		}
		// (min, second-min) of Ẽ_g + base_g over groups whose outgoing
		// floors are uniform; groups with a member channel floor above its
		// base floor contribute exact per-destination terms instead. A
		// shard whose channel floors never exceed its base floor has
		// floorTo == baseFloor toward every destination, so the generic
		// term is exact for it too — that keeps the common
		// all-channels-equal topology (every nose NIC, the kernelscale
		// ring) out of the O(groups²) per-destination loop.
		u1, u2 := infTime, infTime
		var argU *group
		chanGroups = chanGroups[:0]
		for _, g := range s.groups {
			if g.chanOver {
				chanGroups = append(chanGroups, g)
				continue
			}
			u := g.eot
			if vMin < u {
				u = vMin
			}
			u += g.base
			if u < u1 {
				u1, u2, argU = u, u1, g
			} else if u < u2 {
				u2 = u
			}
		}
		runnable = runnable[:0]
		for _, g := range s.groups {
			if g.head == infTime {
				continue
			}
			bound := u1
			if g == argU {
				bound = u2
			}
			for _, src := range chanGroups {
				if src == g {
					continue
				}
				e := src.eot
				if vMin < e {
					e = vMin
				}
				if c := e + src.minFloorTo(g); c < bound {
					bound = c
				}
			}
			if g.head < bound {
				g.bound = bound
				g.fired = 0
				g.active = 0
				for _, sh := range g.members {
					if t, ok := sh.events.peek(); ok && t < bound {
						g.active++
					}
				}
				runnable = append(runnable, g)
			}
		}
		if len(runnable) == 0 {
			// Unreachable: the group holding the globally earliest event
			// always clears its own bound, because every inbound term is at
			// least t0 plus a positive floor. Fail loudly rather than spin.
			panic("sim: EOT window scheduler stalled with pending events")
		}
		s.wWindows++
		s.wShardRounds += uint64(len(s.shards))
		s.wGroupWindows += uint64(len(runnable))
		for _, g := range runnable {
			s.wShardWindows += uint64(g.active)
		}
		s.inWindow = true
		if len(runnable) == 1 {
			// A lone runnable group needs no hand-off; run it inline under
			// the same window semantics so ord stamping and clamping are
			// identical to the dispatched path.
			s.runGroup(runnable[0])
		} else {
			b.queue = runnable
			b.next.Store(0)
			k := nw
			if k > len(runnable) {
				k = len(runnable)
			}
			b.pending.Store(int64(k))
			for i := 0; i < k; i++ {
				b.gate <- struct{}{}
			}
			<-b.done
		}
		s.inWindow = false
		s.fRounds++
		for _, g := range runnable {
			s.fEvents += uint64(g.fired)
		}
		for _, sh := range s.shards {
			if sh.failure != nil {
				s.flushWindowTrace(infTime)
				panic(sh.failure.String())
			}
		}
	}
}

// winBarrier is the window scheduler's epoch barrier: queue/next publish
// the round's work, pending counts engaged workers, gate releases them and
// done reports the round complete. The coordinator writes queue before
// sending tokens (the channel send orders the writes) and reads worker
// results only after done (the last engaged worker's atomic decrement
// orders every worker's writes before the signal).
type winBarrier struct {
	queue   []*group
	next    atomic.Int64
	pending atomic.Int64
	gate    chan struct{}
	done    chan struct{}
}

// work is one worker's share of a round: claim groups until none is left,
// then leave the barrier — deferred, as a Goexit in a process ends its resumer.
func (b *winBarrier) work(s *Sim) {
	defer func() {
		if b.pending.Add(-1) == 0 {
			b.done <- struct{}{}
		}
	}()
	for {
		k := b.next.Add(1) - 1
		if k >= int64(len(b.queue)) {
			return
		}
		s.runGroup(b.queue[k])
	}
}

// drainOutbox delivers sh's staged cross-shard sends into their destination
// heaps and resets the buckets, retaining their capacity. Coordinator
// context only — between windows, no shard is executing.
func (s *Sim) drainOutbox(sh *Shard) {
	o := &sh.outbox
	if len(o.dst) == 0 {
		return
	}
	for k, d := range o.dst {
		home := s.shards[d]
		evs := o.evs[k]
		for i := range evs {
			home.events.push(evs[i])
		}
		clear(evs) // release closure/proc references
		o.evs[k] = evs[:0]
		o.idx[d] = 0
	}
	o.dst = o.dst[:0]
}

// runShardWindow fires sh's events strictly below sh.bound; everything it
// touches is shard-private.
func (s *Sim) runShardWindow(sh *Shard) {
	for sh.events.len() > 0 && sh.failure == nil {
		if t, _ := sh.events.peek(); t >= sh.bound {
			break
		}
		s.fireWindow(sh, sh.events.pop())
	}
}

// flushWindowTrace merges every buffered trace event with At strictly below
// safeT into the sink in exactly the serialized engine's emission order and
// retains the rest. Ragged EOT windows let a frontier shard buffer
// emissions far past its neighbors; those stay parked until no shard can
// fire below them (the caller passes the global heap floor as safeT — or
// infTime to flush everything at the end of the run).
//
// The merge is a k-way heads-merge of the per-shard buffers, each in firing
// order and carrying one record per fired event (the Sub -1 sentinels).
// That replays the serialized engine exactly: serially, the next event to
// fire is the minimum (at, ord) over the shards' pending heap heads, and
// below safeT every event has fired on its shard, so each buffer's current
// head IS that shard's heap head at the corresponding serial moment. A
// global sort by key would NOT be equivalent — a firing can schedule a
// same-time child whose ord is smaller than its own (per-shard stamps start
// small; an arrival carries its busy sender's large stamp), and serially
// that child's output still comes after its parent's turn. Buffers are
// nondecreasing in At (a shard's clock never retreats across windows), so
// the safeT split is a per-shard prefix cut.
func (s *Sim) flushWindowTrace(safeT Time) {
	if s.sink == nil {
		// No collector: sentinels are elided at the firing site, so the
		// per-shard buffers are empty and there is nothing to merge.
		return
	}
	if len(s.cuts) < len(s.shards) {
		s.cuts = make([]int, len(s.shards))
	}
	s.streams = s.streams[:0]
	for _, sh := range s.shards {
		n := len(sh.tbuf)
		s.cuts[sh.id] = 0
		if n == 0 {
			continue
		}
		k := n
		if sh.tbuf[n-1].At >= int64(safeT) {
			k = sort.Search(n, func(i int) bool { return sh.tbuf[i].At >= int64(safeT) })
		}
		if k == 0 {
			continue
		}
		s.cuts[sh.id] = k
		s.streams = append(s.streams, sh.tbuf[:k])
	}
	if len(s.streams) == 0 {
		return
	}
	trace.MergeKeyed(s.streams, func(e trace.Event) {
		if e.Kind != "" { // skip the per-firing sentinels
			s.sink.Emit(e)
		}
	})
	for _, sh := range s.shards {
		k := s.cuts[sh.id]
		if k == 0 {
			continue
		}
		n := copy(sh.tbuf, sh.tbuf[k:])
		clear(sh.tbuf[n:]) // drop references to the emitted suffix copies
		sh.tbuf = sh.tbuf[:n]
	}
}
