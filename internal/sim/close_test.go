package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// panicMessage calls fn and returns the message it panicked with ("" if it
// returned).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// runPanics runs s and returns the message Run panicked with ("" if none).
func runPanics(s *Sim) string { return panicMessage(func() { s.Run() }) }

// TestCloseUnwindsEveryParkedState closes a simulation whose processes are
// in every state a live process can be in — spawned but never resumed,
// sleeping, parked on a WaitQ, queued on a Resource — and checks that each
// started body unwound through its deferred functions, the unstarted one
// never ran, every goroutine is gone, Close is idempotent and a later Run
// fails by name instead of hanging.
func TestCloseUnwindsEveryParkedState(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	q := s.NewWaitQ("q")
	r := s.NewResource("disk")
	unwound := map[string]bool{}
	body := func(block func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			defer func() { unwound[p.Name()] = true }()
			block(p)
			t.Errorf("%s ran past the point it was parked at", p.Name())
		}
	}
	s.Spawn("sleeper", body(func(p *Proc) { p.Sleep(1000) }))
	s.Spawn("waiter", body(func(p *Proc) { q.Park(p) }))
	s.Spawn("timed-waiter", body(func(p *Proc) { q.ParkTimeout(p, 1000) }))
	s.Spawn("holder", body(func(p *Proc) { r.Use(p, 1000) }))
	s.Spawn("queued", body(func(p *Proc) { r.Use(p, 10) }))
	s.RunUntil(100)
	s.Spawn("unstarted", body(func(p *Proc) {}))
	if n := len(s.live); n != 6 {
		t.Fatalf("%d live processes before Close, want 6", n)
	}

	s.Close()
	for _, name := range []string{"sleeper", "waiter", "timed-waiter", "holder", "queued"} {
		if !unwound[name] {
			t.Errorf("deferred function of %s did not run", name)
		}
	}
	if unwound["unstarted"] {
		t.Error("body of a process that was never resumed ran")
	}
	checkSettled(t, s, baseline)
	s.Close() // idempotent
	checkSettled(t, s, baseline)

	if msg := runPanics(s); !strings.Contains(msg, "closed simulation") {
		t.Errorf("Run after Close panicked with %q, want a closed-simulation message", msg)
	}
	if msg := panicMessage(func() { s.RunUntil(2000) }); !strings.Contains(msg, "closed simulation") {
		t.Errorf("RunUntil after Close panicked with %q, want a closed-simulation message", msg)
	}
}

// TestCloseBeforeRun closes a simulation that never ran: the spawned
// processes' coroutines exist but their bodies never start.
func TestCloseBeforeRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	for i := 0; i < 8; i++ {
		s.Spawn("p", func(p *Proc) { t.Error("body ran") })
	}
	s.Close()
	checkSettled(t, s, baseline)
}

// TestCloseUnwindingMayUseTheKernel: deferred functions of unwound processes
// may wake, spawn and even try to block; none of it keeps Close from
// finishing or leaves a goroutine behind.
func TestCloseUnwindingMayUseTheKernel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	q := s.NewWaitQ("q")
	blockedAgain := false
	s.Spawn("a", func(p *Proc) {
		defer func() {
			q.WakeOne()
			s.Spawn("late", func(p *Proc) { t.Error("process spawned during Close ran") })
			defer func() { blockedAgain = recover() != nil }()
			p.Sleep(1) // unwinds again instead of blocking
			t.Error("Sleep returned during Close")
		}()
		p.Sleep(1000)
	})
	s.Spawn("b", func(p *Proc) { q.Park(p) })
	s.RunUntil(10)
	s.Close()
	if !blockedAgain {
		t.Error("a park during unwinding did not unwind")
	}
	checkSettled(t, s, baseline)
}

// TestRunFailureClosesSimulation: a Run that panics out — deadlock, process
// panic, a panic in an event callback — unwinds every surviving process and
// leaves no goroutine behind, whatever the harness told the partitioning shim
// (workers=0 builds the simulation without it).
func TestRunFailureClosesSimulation(t *testing.T) {
	cases := []struct {
		name string
		fail func(s *Sim, sh *Shard) // nil: the waiters alone are the deadlock
		want string
	}{
		{"deadlock", nil, "deadlock: 3 process(es) parked"},
		{"process panic", func(s *Sim, sh *Shard) {
			s.Spawn("bad", func(p *Proc) { p.Sleep(50); panic("boom") })
		}, `process "bad" panicked: boom`},
		{"event panic", func(s *Sim, sh *Shard) {
			sh.At(50, func() { panic("bang") })
		}, "bang"},
	}
	for _, c := range cases {
		for _, workers := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				s, shards := newShards(workers > 0, 10, workers, 3)
				// Survivors on every node: one parked on a WaitQ for good
				// and, when something else ends the run, one sleeping and
				// one queueing on a Resource in a loop.
				survivors, unwound := 0, 0
				spawn := func(name string, body func(p *Proc)) {
					survivors++
					s.Spawn(name, func(p *Proc) {
						defer func() { unwound++ }()
						body(p)
					})
				}
				for i, sh := range shards {
					q := s.NewWaitQ(fmt.Sprintf("q%d", i))
					r := sh.NewResource(fmt.Sprintf("r%d", i))
					spawn("waiter", func(p *Proc) { q.Park(p) })
					if c.fail == nil {
						continue
					}
					spawn("sleeper", func(p *Proc) {
						for {
							p.Sleep(7)
						}
					})
					spawn("user", func(p *Proc) {
						for {
							r.Use(p, 3)
						}
					})
				}
				if c.fail != nil {
					c.fail(s, shards[1])
				}
				if msg := runPanics(s); !strings.Contains(msg, c.want) {
					t.Errorf("Run panicked with %q, want %q", msg, c.want)
				}
				if unwound != survivors {
					t.Errorf("%d of %d surviving processes unwound through their defers", unwound, survivors)
				}
				checkSettled(t, s, baseline)
				if msg := runPanics(s); !strings.Contains(msg, "closed simulation") {
					t.Errorf("second Run panicked with %q, want a closed-simulation message", msg)
				}
			})
		}
	}
}

// TestCloseKeepsFirstFailure: a panic raised by a deferred function while
// Close unwinds the survivors of a failed run does not replace the failure
// Run reports.
func TestCloseKeepsFirstFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	s.Spawn("first", func(p *Proc) { p.Sleep(10); panic("original") })
	s.Spawn("second", func(p *Proc) {
		defer func() { panic("raised while unwinding") }()
		p.Sleep(1000)
	})
	msg := runPanics(s)
	if !strings.Contains(msg, `process "first" panicked: original`) {
		t.Errorf("Run panicked with %q, want the first failure", msg)
	}
	if f := s.failure; f == nil || f.name != "first" {
		t.Errorf("recorded failure = %+v, want the one of process first", f)
	}
	checkSettled(t, s, baseline)
}

// TestCloseInsideRunPanics: Close is a teardown for the caller of Run, not a
// kernel primitive; from inside a process it is a named failure.
func TestCloseInsideRunPanics(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New()
	s.Spawn("closer", func(p *Proc) { p.Sleep(1); s.Close() })
	s.Spawn("other", func(p *Proc) { p.Sleep(100) })
	if msg := runPanics(s); !strings.Contains(msg, "Close called from inside Run") {
		t.Errorf("Run panicked with %q, want the Close-inside-Run message", msg)
	}
	checkSettled(t, s, baseline)
}

// TestGoexitInProcess: runtime.Goexit in a process body (t.FailNow, say)
// ends the goroutine that called Run, exactly as if the body had run there;
// the simulation is closed and nothing leaks. "windows" builds the
// simulation the way the harness once asked for parallel windows, which the
// partitioning shim ignores.
func TestGoexitInProcess(t *testing.T) {
	for _, c := range []struct {
		name        string
		partitioned bool
	}{{"serial", false}, {"windows", true}} {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			s, _ := newShards(c.partitioned, 10, 2, 2)
			for i := range 2 {
				s.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
					for {
						p.Sleep(5)
					}
				})
			}
			s.Spawn("quitter", func(p *Proc) { p.Sleep(50); runtime.Goexit() })
			returned, done := false, make(chan struct{})
			go func() {
				defer close(done)
				s.Run()
				returned = true
			}()
			<-done
			if returned {
				t.Error("Run returned although a process called Goexit")
			}
			checkSettled(t, s, baseline)
		})
	}
}
