package sim

import (
	"bytes"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gamma/internal/trace"
)

// tick emits an order-sensitive trace record: it embeds the current value of
// *state, so any change in execution order — not just in emission order —
// changes the trace bytes.
func tick(s *Sim, label string, state *int) {
	s.Emit(trace.Event{At: int64(s.Now()), Kind: "tick", Res: label, N: *state})
}

// traceBytes runs the simulation and returns the collected JSONL trace.
func traceBytes(t testing.TB, s *Sim, col *trace.Collector) []byte {
	t.Helper()
	s.Run()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

func TestClockAdvancesOnSleep(t *testing.T) {
	s := New()
	var woke Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		woke = p.Now()
	})
	end := s.Run()
	if woke != 5*Millisecond {
		t.Errorf("woke at %v, want 5ms", woke)
	}
	if end != 5*Millisecond {
		t.Errorf("run ended at %v, want 5ms", end)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestEqualTimeEventsFireInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(7, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestResourceSerializesRequests(t *testing.T) {
	s := New()
	r := s.NewResource("disk")
	var finish []Time
	for i := 0; i < 3; i++ {
		s.Spawn("user", func(p *Proc) {
			r.Use(p, 10*Millisecond)
			finish = append(finish, p.Now())
		})
	}
	s.Run()
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Errorf("finish[%d] = %v, want %v", i, finish[i], want[i])
		}
	}
	busy, n, waited := r.Stats()
	if busy != 30*Millisecond || n != 3 {
		t.Errorf("stats busy=%v n=%d, want 30ms, 3", busy, n)
	}
	if waited != 30*Millisecond { // 0 + 10 + 20
		t.Errorf("waited = %v, want 30ms", waited)
	}
}

func TestResourceIsFIFOAcrossArrivalTimes(t *testing.T) {
	s := New()
	r := s.NewResource("r")
	var order []string
	spawnAt := func(at Time, name string) {
		s.At(at, func() {
			s.Spawn(name, func(p *Proc) {
				r.Use(p, 5*Millisecond)
				order = append(order, name)
			})
		})
	}
	spawnAt(0, "a")
	spawnAt(1, "b")
	spawnAt(2, "c")
	s.Run()
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v, want [a b c]", order)
	}
}

func TestUseAsyncDoesNotBlockCaller(t *testing.T) {
	s := New()
	r := s.NewResource("r")
	var tAfter Time
	var done Time
	s.Spawn("p", func(p *Proc) {
		done = r.UseAsync(8 * Millisecond)
		tAfter = p.Now()
	})
	s.Run()
	if tAfter != 0 {
		t.Errorf("caller advanced to %v, want 0", tAfter)
	}
	if done != 8*Millisecond {
		t.Errorf("completion = %v, want 8ms", done)
	}
}

func TestWaitQParkAndWake(t *testing.T) {
	s := New()
	q := s.NewWaitQ("q")
	var consumed Time
	s.Spawn("consumer", func(p *Proc) {
		q.Park(p)
		consumed = p.Now()
	})
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(42 * Millisecond)
		q.WakeOne()
	})
	s.Run()
	if consumed != 42*Millisecond {
		t.Errorf("consumer resumed at %v, want 42ms", consumed)
	}
}

func TestWaitQWakeAll(t *testing.T) {
	s := New()
	q := s.NewWaitQ("q")
	woken := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) {
			q.Park(p)
			woken++
		})
	}
	s.Spawn("boss", func(p *Proc) {
		p.Sleep(1)
		if n := q.WakeAll(); n != 5 {
			t.Errorf("WakeAll woke %d, want 5", n)
		}
	})
	s.Run()
	if woken != 5 {
		t.Errorf("woken = %d, want 5", woken)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s := New()
	q := s.NewWaitQ("q")
	s.Spawn("stuck", func(p *Proc) { q.Park(p) })
	s.Run()
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected process panic to propagate")
		}
	}()
	s := New()
	s.Spawn("bad", func(p *Proc) { panic("boom") })
	s.Run()
}

func TestRunUntilAdvancesClockOnly(t *testing.T) {
	s := New()
	fired := false
	s.At(100, func() { fired = true })
	s.RunUntil(50)
	if fired {
		t.Error("event at t=100 fired before deadline 50")
	}
	if s.Now() != 50 {
		t.Errorf("clock = %v, want 50", s.Now())
	}
	s.RunUntil(200)
	if !fired {
		t.Error("event at t=100 did not fire by deadline 200")
	}
}

// TestEventCounterLeavesExecutedAlone: one program, run in two legs (RunUntil,
// then Run) with and without a shared event counter, reads the same
// Executed() after each leg, and the counter ends holding every calendar event
// fired once — completions nobody waits for left out.
func TestEventCounterLeavesExecutedAlone(t *testing.T) {
	run := func(counter *atomic.Int64) (legs [2]uint64, fired uint64) {
		s := New()
		if counter != nil {
			s.SetEventCounter(counter)
		}
		r := s.NewResource("r")
		s.Spawn("p", func(p *Proc) {
			r.UseAsync(3 * Millisecond)
			p.Sleep(40)
			r.Use(p, 20)
			p.Sleep(100)
		})
		s.At(10, func() {})
		s.At(150, func() {})
		s.RunUntil(50)
		legs[0] = s.Executed()
		s.Run()
		legs[1] = s.Executed()
		return legs, s.executed
	}
	want, fired := run(nil)
	var counter atomic.Int64
	got, _ := run(&counter)
	if got != want || want[0] == 0 || want[1] <= want[0] {
		t.Errorf("Executed() after each leg = %v with a counter, %v without", got, want)
	}
	if counter.Load() != int64(fired) || fired >= want[1] {
		t.Errorf("counter holds %d events, want the %d the calendar fired (Executed %d counts completions too)",
			counter.Load(), fired, want[1])
	}
}

// TestDeterminism: the same program produces the same schedule every run.
func TestDeterminism(t *testing.T) {
	runOnce := func() []Time {
		s := New()
		r := s.NewResource("r")
		var ts []Time
		for i := 0; i < 20; i++ {
			d := Dur((i*37)%11 + 1)
			s.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				r.Use(p, d*2)
				ts = append(ts, p.Now())
			})
		}
		s.Run()
		return ts
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: a FIFO resource's total busy time equals the sum of service
// demands, and the final completion horizon is at least that sum.
func TestResourceConservationProperty(t *testing.T) {
	f := func(demands []uint16) bool {
		s := New()
		r := s.NewResource("r")
		var sum Dur
		for _, d := range demands {
			d := Dur(d)
			sum += d
			s.Spawn("p", func(p *Proc) { r.Use(p, d) })
		}
		end := s.Run()
		busy, n, _ := r.Stats()
		return busy == sum && n == int64(len(demands)) && end == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Sleep(d) always advances the clock by exactly d regardless of
// other concurrent sleepers.
func TestSleepExactProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		s := New()
		ok := true
		for _, d := range ds {
			d := Dur(d)
			s.Spawn("p", func(p *Proc) {
				start := p.Now()
				p.Sleep(d)
				if p.Now()-start != d {
					ok = false
				}
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("1500ms = %vs", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v", got)
	}
}
