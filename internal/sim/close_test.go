package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gamma/internal/trace"
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
	s.SpawnAt(500, "unstarted", body(func(p *Proc) {}))
	s.RunUntil(100)
	if n := len(s.sh0.live); n != 6 {
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
// leaves no goroutine behind, in serialized and in windowed execution.
func TestRunFailureClosesSimulation(t *testing.T) {
	cases := []struct {
		name string
		fail func(sh *Shard) // nil: the waiters alone are the deadlock
		want string
	}{
		{"deadlock", nil, "deadlock: 3 process(es) parked"},
		{"process panic", func(sh *Shard) {
			sh.Spawn("bad", func(p *Proc) { p.Sleep(50); panic("boom") })
		}, `process "bad" panicked: boom`},
		{"event panic", func(sh *Shard) {
			sh.At(50, func() { panic("bang") })
		}, "bang"},
	}
	for _, c := range cases {
		for _, workers := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				s := New()
				shards := []*Shard{s.sh0, s.sh0, s.sh0}
				if workers > 0 {
					s.Partition(10)
					s.SetWorkers(workers)
					shards = []*Shard{s.AddShard(), s.AddShard(), s.AddShard()}
				}
				// Survivors on every shard: one parked on a WaitQ for good
				// and, when something else ends the run, one sleeping and
				// one queueing on a Resource in a loop.
				survivors, unwound := 0, 0
				spawn := func(sh *Shard, name string, body func(p *Proc)) {
					survivors++
					sh.Spawn(name, func(p *Proc) {
						defer func() { unwound++ }()
						body(p)
					})
				}
				for i, sh := range shards {
					q := sh.NewWaitQ(fmt.Sprintf("q%d", i))
					r := sh.NewResource(fmt.Sprintf("r%d", i))
					spawn(sh, "waiter", func(p *Proc) { q.Park(p) })
					if c.fail == nil {
						continue
					}
					spawn(sh, "sleeper", func(p *Proc) {
						for {
							p.Sleep(7)
						}
					})
					spawn(sh, "user", func(p *Proc) {
						for {
							r.Use(p, 3)
						}
					})
				}
				if c.fail != nil {
					c.fail(shards[1])
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
	if f := s.sh0.failure; f == nil || f.name != "first" {
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
// ends the goroutine that called Run in serialized execution, exactly as if
// the body had run there; under parallel windows it takes down the worker
// that resumed the process and Run reports it as that process's failure.
// Either way the simulation is closed and nothing leaks.
func TestGoexitInProcess(t *testing.T) {
	build := func(s *Sim, shards []*Shard) {
		for i, sh := range shards {
			sh.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
				for {
					p.Sleep(5)
				}
			})
		}
		shards[len(shards)-1].Spawn("quitter", func(p *Proc) { p.Sleep(50); runtime.Goexit() })
	}
	t.Run("serial", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		s := New()
		build(s, []*Shard{s.sh0, s.sh0})
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
	t.Run("windows", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		s := New()
		s.Partition(10)
		s.SetWorkers(2)
		build(s, []*Shard{s.AddShard(), s.AddShard()})
		if msg := runPanics(s); !strings.Contains(msg, `process "quitter" panicked: runtime.Goexit`) {
			t.Errorf("Run panicked with %q, want the quitter's Goexit", msg)
		}
		checkSettled(t, s, baseline)
	})
}

// goroutineID returns the id of the calling goroutine, parsed from its stack
// header ("goroutine 123 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestResumeFromAnotherWorker: under parallel windows a process parked in
// one window is resumed in the next by whichever worker claims its shard —
// a different goroutine from the one that ran it last. The coroutine switch
// must be indifferent to that (and -race must see the barrier as the
// ordering between the two), and the trace must equal the serial oracle's.
func TestResumeFromAnotherWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const nodes, hops, work = 8, 40, 6
	run := func(workers int) (out []byte, migrations int) {
		s := New()
		s.Partition(kernelLookahead)
		s.SetWorkers(workers)
		col := trace.NewCollector()
		s.SetSink(col)
		shards := make([]*Shard, nodes)
		tokens := make([]int, nodes)
		migrated := make([]int, nodes) // per shard: only its worker writes it
		mail := make([]*WaitQ, nodes)
		for i := range shards {
			shards[i] = s.AddShard()
			mail[i] = shards[i].NewWaitQ(fmt.Sprintf("mail%d", i))
		}
		for i, sh := range shards {
			cpu := sh.NewResource(fmt.Sprintf("cpu%d", i))
			next := (i + 1) % nodes
			var lastWorker string
			sh.Spawn(fmt.Sprintf("node%d", i), func(p *Proc) {
				for h := 0; h < hops; h++ {
					for w := 0; w < work; w++ {
						// The callback fires in the same window as the wake
						// that follows it, on the worker that will resume p.
						sh.At(p.Now()+1, func() {
							if id := goroutineID(); id != lastWorker {
								if lastWorker != "" {
									migrated[i]++
								}
								lastWorker = id
							}
						})
						cpu.Use(p, 1)
					}
					sh.Send(shards[next], p.Now()+kernelLookahead, func() {
						tokens[next]++
						mail[next].WakeOne()
					})
					for tokens[i] == 0 {
						mail[i].Park(p)
					}
					tokens[i]--
				}
			})
		}
		s.Run()
		var buf bytes.Buffer
		if err := col.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		for _, n := range migrated {
			migrations += n
		}
		return buf.Bytes(), migrations
	}
	oracle, _ := run(1)
	if len(oracle) == 0 {
		t.Fatal("oracle run emitted no trace")
	}
	migrations := 0
	for attempt := 0; attempt < 20 && migrations == 0; attempt++ {
		got, migrated := run(4)
		if !bytes.Equal(got, oracle) {
			t.Fatalf("4-worker trace differs from the serial oracle (%d vs %d bytes)", len(got), len(oracle))
		}
		migrations += migrated
	}
	if migrations == 0 {
		t.Error("no process was ever resumed by a different worker goroutine in 20 runs")
	}
}
