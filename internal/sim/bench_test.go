package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkAfter measures the steady-state schedule/fire cycle: one event
// pushed and popped per iteration. The acceptance bar is zero allocs/op —
// the calendar must not box events or build closures on the hot path.
func BenchmarkAfter(b *testing.B) {
	s := New()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, nop)
		s.Run()
	}
}

// BenchmarkAfterDeep keeps 4,096 events pending, ten times what any workload
// holds: the calendar's shifts at a depth past its heap crossover.
func BenchmarkAfterDeep(b *testing.B) {
	s := New()
	nop := func() {}
	for i := 0; i < 4096; i++ {
		s.After(Dur(1+i%97), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Dur(1+i%97), nop)
		s.fireSerial(s.events.pop())
	}
	b.StopTimer()
	s.Run()
}

// BenchmarkResourceUse measures a full park/wake round trip through a FIFO
// resource: enqueue, grant, sleep-to-completion, resume. Steady state must
// be zero allocs/op.
func BenchmarkResourceUse(b *testing.B) {
	s := New()
	r := s.NewResource("r")
	s.Spawn("user", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Use(p, 1)
		}
	})
	s.Run()
}

// BenchmarkWaitQPingPong measures two processes alternating park/wake
// through a pair of wait queues — the mailbox pattern the network and
// operator processes use constantly.
func BenchmarkWaitQPingPong(b *testing.B) {
	s := New()
	ping := s.NewWaitQ("ping")
	pong := s.NewWaitQ("pong")
	s.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Park(p)
			pong.WakeOne()
		}
	})
	s.Spawn("b", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.WakeOne()
			pong.Park(p)
		}
	})
	s.Run()
}

// atGOMAXPROCS runs fn as sub-benchmarks at GOMAXPROCS 1 and 2: a hand-off
// that stays a coroutine switch costs the same at both, one that goes
// through the scheduler pays a cross-thread wake-up at 2.
func atGOMAXPROCS(b *testing.B, fn func(b *testing.B)) {
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(b)
		})
	}
}

// BenchmarkHandoffLockstep has 64 processes sleep in lock step, the shape of
// the ledger's sim.handoff_ns_per_switch probe: every Sleep is one park and
// one resume through the kernel loop. One iteration is one Sleep.
func BenchmarkHandoffLockstep(b *testing.B) {
	atGOMAXPROCS(b, func(b *testing.B) {
		const procs = 64
		s := New()
		for i := 0; i < procs; i++ {
			s.Spawn("sleeper", func(p *Proc) {
				for j := 0; j < b.N/procs; j++ {
					p.Sleep(1)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		s.Run()
	})
}

// BenchmarkSpawn measures spawn + first resume + exit of a process whose
// body does nothing, 100 per simulated tick so the goroutines alive at any
// moment stay bounded (the ledger's sim.spawn_ns probe).
func BenchmarkSpawn(b *testing.B) {
	atGOMAXPROCS(b, func(b *testing.B) {
		s := New()
		s.Spawn("spawner", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				s.Spawn("child", func(*Proc) {})
				if i%100 == 99 {
					p.Sleep(1)
				}
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		s.Run()
	})
}

// TestHandoffAllocs pins the allocation cost of the hand-off: a park/wake
// cycle, a Resource.Use and an itinerary (Proc.Steps with its step bound
// beforehand) allocate nothing, a UseAsync allocates nothing and
// leaves the calendar as it found it, and a Spawn allocates a bounded number
// of objects (the Proc, its wrapper closure and iter.Pull's coroutine state).
func TestHandoffAllocs(t *testing.T) {
	const maxPerSpawn = 16
	s := New()
	r := s.NewResource("r")
	var sleep, use, steps, async, spawn float64
	var pending int
	s.Spawn("p", func(p *Proc) {
		sleep = testing.AllocsPerRun(1000, func() { p.Sleep(1) })
		use = testing.AllocsPerRun(1000, func() { r.Use(p, 1) })
		stage := 0
		threeStages := func() (Time, bool) {
			if stage == 3 {
				stage = 0
				return 0, false
			}
			stage++
			return r.Reserve(1), true
		}
		steps = testing.AllocsPerRun(1000, func() { p.Steps(threeStages) })
		pending = s.events.len()
		async = testing.AllocsPerRun(1000, func() { r.UseAsync(1) })
		pending -= s.events.len()
		child := func(*Proc) {}
		spawn = testing.AllocsPerRun(1000, func() {
			s.Spawn("child", child)
			p.Sleep(1) // let the child run and exit
		})
	})
	s.Run()
	if sleep != 0 {
		t.Errorf("Proc.Sleep allocates %v objects per park/wake cycle, want 0", sleep)
	}
	if use != 0 {
		t.Errorf("Resource.Use allocates %v objects per call, want 0", use)
	}
	if steps != 0 {
		t.Errorf("Proc.Steps allocates %v objects per three-stage itinerary, want 0", steps)
	}
	if async != 0 || pending != 0 {
		t.Errorf("Resource.UseAsync allocates %v objects per call and 1001 calls grew the calendar by %d events, want 0 and 0", async, -pending)
	}
	if spawn < 1 || spawn > maxPerSpawn {
		t.Errorf("Spawn allocates %v objects per process, want 1..%d", spawn, maxPerSpawn)
	}
}

// BenchmarkUseAsync measures a reservation nobody waits for: no allocation
// and no calendar entry.
func BenchmarkUseAsync(b *testing.B) {
	s := New()
	r := s.NewResource("r")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.UseAsync(1)
	}
	b.StopTimer()
	if n := s.events.len(); n != 0 {
		b.Fatalf("UseAsync left %d calendar entries", n)
	}
	if end := s.Run(); end != r.BusyUntil() {
		b.Fatalf("Run ended at %v, the resource is busy until %v", end, r.BusyUntil())
	}
}
