package sim

import "gamma/internal/trace"

// Resource is a non-preemptive FIFO queueing server: requests are served one
// at a time, in arrival order, each for a caller-specified service time.
// CPUs, disk drives, network interfaces, and the token ring are all modeled
// as Resources.
//
// Because arrivals are totally ordered by the deterministic event loop, FIFO
// order is captured by a single "busy until" horizon rather than an explicit
// queue.
type Resource struct {
	sim       *Sim
	name      string
	busyUntil Time

	// Statistics.
	busy     Dur   // total service time delivered
	requests int64 // number of requests served
	waited   Dur   // total time requests spent queued before service
}

// NewResource creates a named FIFO resource.
func (s *Sim) NewResource(name string) *Resource {
	return &Resource{sim: s, name: name}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Use blocks p while the resource queues and then serves a request of
// duration d. It returns after service completes.
func (r *Resource) Use(p *Proc, d Dur) {
	p.wake(r.Reserve(d))
	p.park()
}

// UseAsync enqueues a request of duration d without blocking the caller and
// returns the simulated time at which service will complete. It models work
// handed to a device that the requesting process does not wait for (e.g. a
// write-behind disk flush). Nothing happens at the completion instant, so the
// completion never visits the calendar — every other event of the run fires
// in the order it would have — and the call counts it as retired (see
// Executed) and raises the simulation's completion horizon, which Run folds
// into the final clock.
func (r *Resource) UseAsync(d Dur) Time {
	done := r.Reserve(d)
	s := r.sim
	s.elided++
	s.horizon = max(s.horizon, done)
	return done
}

// Reserve queues a request of duration d behind the work already accepted and
// returns the time at which its service completes, without blocking anyone
// and without scheduling an event. It is the reservation half of Use, for the
// stages of an itinerary (Proc.Steps): a stage returns the completion time
// and the kernel schedules what Use's wake would have been.
func (r *Resource) Reserve(d Dur) Time {
	if d < 0 {
		d = 0
	}
	now := r.sim.now
	start := now
	if r.busyUntil > start {
		r.waited += r.busyUntil - start
		start = r.busyUntil
	}
	r.busyUntil = start + d
	r.busy += d
	r.requests++
	if sink := r.sim.sink; sink != nil {
		sink.Emit(trace.Event{
			At: int64(now), Kind: trace.KindService, Res: r.name,
			Start: int64(start), End: int64(r.busyUntil),
		})
	}
	return r.busyUntil
}

// BusyUntil returns the time at which all currently queued work completes.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// Stats reports totals: service time delivered, requests served, and
// cumulative queueing delay.
func (r *Resource) Stats() (busy Dur, requests int64, waited Dur) {
	return r.busy, r.requests, r.waited
}
