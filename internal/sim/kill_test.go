package sim

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines samples the goroutine count, allowing a few scheduler
// ticks for exiting goroutines to be reaped.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// checkSettled asserts the simulation wound down completely: no parked
// processes, no live process goroutines, and the runtime goroutine count
// back to its pre-simulation baseline (no leaks).
func checkSettled(t *testing.T, s *Sim, baseline int) {
	t.Helper()
	if s.parked != 0 {
		t.Errorf("%d processes still parked", s.parked)
	}
	if n := len(s.live); n != 0 {
		t.Errorf("%d process goroutines still live", n)
	}
	if n := settledGoroutines(baseline); n > baseline {
		t.Errorf("goroutine leak: %d live, baseline %d", n, baseline)
	}
}

// TestKillBeforeFirstResume kills a spawned process before Run ever starts
// it: the body must never execute and the simulation must wind down clean.
func TestKillBeforeFirstResume(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	ran := false
	p := s.Spawn("victim", func(p *Proc) { ran = true })
	p.Kill()
	s.Run()
	if ran {
		t.Error("killed process body ran")
	}
	if !p.Killed() {
		t.Error("Killed() false after Kill")
	}
	checkSettled(t, s, baseline)
}

// TestDoubleKill: killing twice (before resume, while parked, or after
// death) must be a harmless no-op, not a double-wake.
func TestDoubleKill(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	q := s.NewWaitQ("q")
	victim := s.Spawn("victim", func(p *Proc) {
		q.Park(p)
		t.Error("parked victim resumed past kill")
	})
	s.At(5, func() {
		victim.Kill()
		victim.Kill() // second kill: no-op
	})
	s.At(10, func() {
		victim.Kill() // kill after death: no-op
	})
	s.Run()
	if q.Len() != 0 {
		t.Errorf("wait queue still holds %d entries", q.Len())
	}
	checkSettled(t, s, baseline)
}

// TestKillWhileQueuedOnResource kills a process that is parked awaiting a
// FIFO resource grant: its pending completion wake must unwind it instead
// of resuming the body, and Run must neither deadlock-panic nor leak.
func TestKillWhileQueuedOnResource(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	r := s.NewResource("disk")
	resumed := false
	var victim *Proc
	s.Spawn("holder", func(p *Proc) {
		r.Use(p, 100) // occupies the resource until t=100
	})
	victim = s.Spawn("victim", func(p *Proc) {
		r.Use(p, 10) // queued behind holder; grant completes at t=110
		resumed = true
	})
	s.At(50, func() { victim.Kill() }) // killed mid-queue
	end := s.Run()
	if resumed {
		t.Error("killed process resumed past its resource grant")
	}
	// The reserved service slot still advances the clock (FIFO horizon
	// semantics): the kill unwinds the process at its wake, not before.
	if end != 110 {
		t.Errorf("clock ended at %v, want 110", end)
	}
	checkSettled(t, s, baseline)
}

// TestKillSleepingProcess: a sleeping process dies at its pending wake.
func TestKillSleepingProcess(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	reached := false
	victim := s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		reached = true
	})
	s.At(10, func() { victim.Kill() })
	s.Run()
	if reached {
		t.Error("killed sleeper ran past Sleep")
	}
	checkSettled(t, s, baseline)
}

// TestKillParkedOnWaitQ: a kill removes the process from the queue
// immediately, so a later WakeOne grants to the next waiter.
func TestKillParkedOnWaitQ(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	q := s.NewWaitQ("q")
	var got string
	s.Spawn("first", func(p *Proc) {
		q.Park(p)
		t.Error("killed first waiter resumed")
	})
	s.Spawn("second", func(p *Proc) {
		q.Park(p)
		got = "second"
	})
	var first *Proc
	s.At(0, func() {})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(5)
		first = findProcOnQ(q, "first")
		first.Kill()
		p.Sleep(5)
		q.WakeOne()
	})
	s.Run()
	if got != "second" {
		t.Errorf("WakeOne woke %q, want %q", got, "second")
	}
	checkSettled(t, s, baseline)
}

// findProcOnQ fetches a parked process by name (test helper; the model
// layer holds real references).
func findProcOnQ(q *WaitQ, name string) *Proc {
	for _, p := range q.procs[q.head:] {
		if p != nil && p.name == name {
			return p
		}
	}
	return nil
}
