package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gamma/internal/trace"
)

// TestRunCoversAsyncCompletions: work nobody waits for is no event, yet Run
// ends at its completion however the harness built the simulation.
func TestRunCoversAsyncCompletions(t *testing.T) {
	for _, m := range shimModes {
		t.Run(m.name, func(t *testing.T) {
			s, shards := newShards(m.partitioned, m.lookahead, m.workers, 8)
			done := make([]Time, len(shards))
			for i, sh := range shards {
				r := sh.NewResource(fmt.Sprintf("r%d", i))
				sh.At(Time(i), func() {
					// Two requests queue: the second completes at i + 30*(i+1).
					r.UseAsync(Dur(10 * (i + 1)))
					done[i] = r.UseAsync(Dur(20 * (i + 1)))
				})
			}
			end := s.Run()
			latest := done[len(done)-1]
			if want := Time(7 + 30*8); latest != want || end != want || s.Now() != want {
				t.Errorf("Run ended at %v (Now %v), latest completion %v, want %v", end, s.Now(), latest, want)
			}
			if got := s.executed; got != uint64(len(shards)) {
				t.Errorf("fired %d events, want %d: a completion never visits the calendar", got, len(shards))
			}
			if got := s.Executed(); got != uint64(3*len(shards)) {
				t.Errorf("Executed %d, want %d: one callback and two completions a node", got, 3*len(shards))
			}
		})
	}
}

// TestRunUntilStopsBeforeCompletion: a completion beyond the deadline does
// not move RunUntil's clock, and a later Run still ends at it.
func TestRunUntilStopsBeforeCompletion(t *testing.T) {
	s := New()
	r := s.NewResource("r")
	s.At(5, func() { r.UseAsync(45) })
	if end := s.RunUntil(20); end != 20 {
		t.Errorf("RunUntil(20) = %v with a completion at 50", end)
	}
	if end := s.Run(); end != 50 {
		t.Errorf("Run after RunUntil = %v, want the completion at 50", end)
	}
	if end := s.RunUntil(80); end != 80 {
		t.Errorf("RunUntil(80) = %v past every completion", end)
	}
}

// TestDeadlockWithOutstandingCompletion: a completion is not a pending event,
// so it cannot hide a deadlock.
func TestDeadlockWithOutstandingCompletion(t *testing.T) {
	s := New()
	r := s.NewResource("r")
	q := s.NewWaitQ("q")
	s.Spawn("stuck", func(p *Proc) {
		r.UseAsync(100)
		q.Park(p)
	})
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "deadlock: 1 process(es) parked") {
			t.Errorf("Run with a parked process and a completion at 100: %q", msg)
		}
	}()
	s.Run()
}

// useAsyncAsEvent is what UseAsync was before completions left the calendar:
// the same reservation plus a completion event that does nothing.
func useAsyncAsEvent(r *Resource, d Dur) Time {
	done := r.Reserve(d)
	r.sim.At(done, func() {})
	return done
}

// asyncModel is a randomized model dense in same-instant ties: per node two
// processes mix blocking CPU use, sleeps, overlapped disk writes and messages
// to other nodes whose handlers charge the receiver asynchronously. Every
// step ticks the trace, so any event that changed its place in the calendar
// reorders the stream. Randomness is drawn per process, never per execution order.
func asyncModel(s *Sim, nodes int, seed int64, async func(*Resource, Dur) Time) (calls *int) {
	calls = new(int)
	charge := func(r *Resource, d Dur) Time {
		*calls++
		return async(r, d)
	}
	cpus := make([]*Resource, nodes)
	disks := make([]*Resource, nodes)
	for i := range nodes {
		cpus[i] = s.NewResource(fmt.Sprintf("cpu%d", i))
		disks[i] = s.NewResource(fmt.Sprintf("disk%d", i))
	}
	zero := new(int)
	for i := range nodes {
		for k := 0; k < 2; k++ {
			rng := rand.New(rand.NewSource(seed + int64(16*i+k)))
			s.Spawn(fmt.Sprintf("p%d.%d", i, k), func(p *Proc) {
				for step := 0; step < 40; step++ {
					d := Dur(1 + rng.Intn(3))
					switch rng.Intn(5) {
					case 0:
						cpus[i].Use(p, d)
					case 1:
						p.Sleep(d)
					case 2:
						charge(disks[i], d)
					case 3:
						done := charge(disks[i], d)
						cpus[i].Use(p, 1)
						if done > p.Now() {
							p.Sleep(done - p.Now())
						}
					case 4:
						j := (i + 1 + rng.Intn(nodes-1)) % nodes
						s.At(p.Now()+10+d, func() {
							tick(s, fmt.Sprintf("msg%d", i), zero)
							charge(cpus[j], d)
						})
					}
					tick(s, p.Name(), zero)
				}
			})
		}
	}
	return calls
}

// TestUseAsyncPreservesEventKeys is the proof that taking completions off the
// calendar moved no surviving event: the model traces byte-identically
// whether its asynchronous charges are UseAsync or the reservation plus an
// explicit no-op completion event, ends at the same
// instant, retires as many events (Executed counts a completion either way)
// and fires exactly one fewer per charge.
func TestUseAsyncPreservesEventKeys(t *testing.T) {
	run := func(seed int64, async func(*Resource, Dur) Time) ([]byte, Time, [2]uint64, int) {
		s := New()
		col := trace.NewCollector()
		s.SetSink(col)
		calls := asyncModel(s, 6, seed, async)
		tb := traceBytes(t, s, col)
		return tb, s.Now(), [2]uint64{s.Executed(), s.executed}, *calls
	}
	for seed := int64(1); seed <= 3; seed++ {
		ref, refEnd, refCount, calls := run(seed, useAsyncAsEvent)
		got, end, count, _ := run(seed, (*Resource).UseAsync)
		if len(ref) == 0 || calls == 0 {
			t.Fatalf("seed %d: empty model (%d trace bytes, %d charges)", seed, len(ref), calls)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("seed %d: trace differs from the completion-event model (%d vs %d bytes)", seed, len(got), len(ref))
		}
		if end != refEnd {
			t.Errorf("seed %d: run ends at %v, with completion events at %v", seed, end, refEnd)
		}
		if count[0] != refCount[0] || count[1]+uint64(calls) != refCount[1] {
			t.Errorf("seed %d: (executed, fired) = %v with %d charges, %v with completion events", seed, count, calls, refCount)
		}
	}
}
