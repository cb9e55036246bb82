package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"gamma/internal/trace"
)

// An itinerary program: what a process does between two points where it needs
// to be itself. Blocking ops are the stages; the others happen in passing.
const (
	opUse   = iota // blocking use of the node's CPU
	opDisk         // blocking use of the node's disk
	opSleep        // sleep
	opAsync        // charge the disk without waiting; remember the completion
	opWait         // wait for the remembered completion: a stage only if it lies ahead
	opSend         // message another node, whose handler charges its CPU
	opKinds
)

type stepOp struct {
	kind int
	d    Dur
	to   int
}

// stepsModel is a randomized model of contending processes, two per node,
// each running legs of random ops with a WaitQ hand-off between legs. Every
// process is generated from its own seed before anything runs, so the parked
// and the Steps form of a leg consume identical programs. parked selects the
// blocking primitives (Use, Sleep, WaitUntil); otherwise each leg is one Steps
// call whose step runs the same ops with Reserve. Every op ticks the trace
// after it completes.
func stepsModel(s *Sim, nodes int, seed int64, parked bool) {
	cpus := make([]*Resource, nodes)
	disks := make([]*Resource, nodes)
	for i := range nodes {
		cpus[i] = s.NewResource(fmt.Sprintf("cpu%d", i))
		disks[i] = s.NewResource(fmt.Sprintf("disk%d", i))
	}
	zero := new(int)
	for i := range nodes {
		baton := s.NewWaitQ(fmt.Sprintf("baton%d", i))
		for k := 0; k < 2; k++ {
			rng := rand.New(rand.NewSource(seed + int64(16*i+k)))
			legs := make([][]stepOp, 12)
			for l := range legs {
				legs[l] = make([]stepOp, rng.Intn(9)) // some legs are empty, some have no stage
				for o := range legs[l] {
					legs[l][o] = stepOp{
						kind: rng.Intn(opKinds),
						d:    Dur(rng.Intn(4)), // zero-length stages are still events
						to:   (i + 1 + rng.Intn(nodes-1)) % nodes,
					}
				}
			}
			s.Spawn(fmt.Sprintf("p%d.%d", i, k), func(p *Proc) {
				var asyncDone Time
				// passing runs a non-blocking op.
				passing := func(o stepOp) {
					switch o.kind {
					case opAsync:
						asyncDone = disks[i].UseAsync(o.d)
					case opSend:
						s.At(p.Now()+10+o.d, func() {
							tick(s, fmt.Sprintf("msg%d", i), zero)
							cpus[o.to].UseAsync(o.d)
						})
					}
				}
				for l, leg := range legs {
					if parked {
						for _, o := range leg {
							switch o.kind {
							case opUse:
								cpus[i].Use(p, o.d)
							case opDisk:
								disks[i].Use(p, o.d)
							case opSleep:
								p.Sleep(o.d)
							case opWait:
								p.WaitUntil(asyncDone)
							default:
								passing(o)
							}
							tick(s, p.Name(), zero)
						}
					} else {
						pc := 0
						p.Steps(func() (Time, bool) {
							if pc > 0 {
								tick(s, p.Name(), zero) // the op that just completed
							}
							for pc < len(leg) {
								o := leg[pc]
								pc++
								switch o.kind {
								case opUse:
									return cpus[i].Reserve(o.d), true
								case opDisk:
									return disks[i].Reserve(o.d), true
								case opSleep:
									return p.Now() + o.d, true
								case opWait:
									if asyncDone > p.Now() {
										return asyncDone, true
									}
								default:
									passing(o)
								}
								tick(s, p.Name(), zero)
							}
							return 0, false
						})
					}
					// Between legs the process is itself again: it hands the
					// node's baton to its sibling.
					tick(s, fmt.Sprintf("%s/leg%d", p.Name(), l), zero)
					if !baton.WakeOne() && l%3 == 0 {
						baton.ParkTimeout(p, 5)
					}
				}
			})
		}
	}
}

// eventKey is the calendar key of one fired event.
type eventKey struct {
	at  Time
	ord uint64
}

// firedKeys runs a simulation with the kernel's own firing step, recording
// the key of every event it fires.
func firedKeys(s *Sim) []eventKey {
	var keys []eventKey
	for s.events.len() > 0 {
		e := s.events.pop()
		keys = append(keys, eventKey{e.at, e.ord})
		s.fireSerial(e)
	}
	return keys
}

// TestStepsPreservesEventKeys is the proof that an itinerary is its blocking
// twin with the hand-offs taken out: random programs of contending processes
// fire the identical (at, ord) sequence whether each stage parks its process
// or the whole leg is one Steps call, and the two forms trace
// byte-identically, retire and fire as many events and end at the same
// instant. Only the resumes differ: the Steps form never has more.
func TestStepsPreservesEventKeys(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		var keys [2][]eventKey
		for form, parked := range []bool{true, false} {
			s := New()
			stepsModel(s, 5, seed, parked)
			keys[form] = firedKeys(s)
		}
		if len(keys[0]) == 0 {
			t.Fatalf("seed %d: the model fired nothing", seed)
		}
		if len(keys[0]) != len(keys[1]) {
			t.Fatalf("seed %d: %d events fired parked, %d as Steps", seed, len(keys[0]), len(keys[1]))
		}
		for i := range keys[0] {
			if keys[0][i] != keys[1][i] {
				t.Fatalf("seed %d: event %d fired with key %v parked, %v as Steps", seed, i, keys[0][i], keys[1][i])
			}
		}
	}

	type outcome struct {
		trace           []byte
		end             Time
		executed, fired uint64
		resumes         uint64
	}
	run := func(seed int64, parked bool) outcome {
		s := New()
		col := trace.NewCollector()
		s.SetSink(col)
		stepsModel(s, 5, seed, parked)
		tb := traceBytes(t, s, col)
		return outcome{tb, s.Now(), s.Executed(), s.executed, s.Resumes()}
	}
	for seed := int64(1); seed <= 4; seed++ {
		ref := run(seed, true)
		got := run(seed, false)
		if len(ref.trace) == 0 {
			t.Fatalf("seed %d: empty model", seed)
		}
		if !bytes.Equal(got.trace, ref.trace) {
			t.Errorf("seed %d: Steps trace differs from the parked one (%d vs %d bytes)", seed, len(got.trace), len(ref.trace))
		}
		if got.end != ref.end || got.executed != ref.executed || got.fired != ref.fired {
			t.Errorf("seed %d: Steps ends at %v with %d retired, %d fired; parked at %v with %d, %d",
				seed, got.end, got.executed, got.fired, ref.end, ref.executed, ref.fired)
		}
		if got.resumes >= ref.resumes {
			t.Errorf("seed %d: %d resumes as Steps, %d parked: itineraries saved none", seed, got.resumes, ref.resumes)
		}
	}
}

// stagedProc spawns a process that uses r five times for 10 each, as one
// Steps call or stage by stage, logging the instant each stage starts, and
// records when and whether it got past the last one or unwound.
type stagedProc struct {
	p       *Proc
	starts  []Time
	unwound Time // when the deferred function ran
	done    bool // the body ran to its end
}

func spawnStaged(s *Sim, r *Resource, parked bool) *stagedProc {
	sp := &stagedProc{unwound: -1}
	sp.p = s.Spawn("staged", func(p *Proc) {
		defer func() { sp.unwound = p.Now() }()
		if parked {
			for i := 0; i < 5; i++ {
				sp.starts = append(sp.starts, p.Now())
				r.Use(p, 10)
			}
		} else {
			p.Steps(func() (Time, bool) {
				if len(sp.starts) == 5 {
					return 0, false
				}
				sp.starts = append(sp.starts, p.Now())
				return r.Reserve(10), true
			})
		}
		sp.done = true
	})
	return sp
}

// TestStepsKillMidItinerary kills a process between two stages: it unwinds at
// the firing that would have run the next stage — the instant its blocking
// twin unwinds — and no later stage ever reserves the resource.
func TestStepsKillMidItinerary(t *testing.T) {
	for _, parked := range []bool{true, false} {
		baseline := runtime.NumGoroutine()
		s := New()
		r := s.NewResource("r")
		sp := spawnStaged(s, r, parked)
		s.At(25, func() { sp.p.Kill() })
		end := s.Run()
		if fmt.Sprint(sp.starts) != "[0.000000s 0.000010s 0.000020s]" || sp.done {
			t.Errorf("parked=%v: stages started at %v, done=%v; want three stages and no completion", parked, sp.starts, sp.done)
		}
		if sp.unwound != 30 || end != 30 {
			t.Errorf("parked=%v: unwound at %d, run ended at %d; want 30, 30", parked, sp.unwound, end)
		}
		if _, requests, _ := r.Stats(); requests != 3 {
			t.Errorf("parked=%v: %d requests reached the resource, want 3", parked, requests)
		}
		checkSettled(t, s, baseline)
	}
}

// TestStepsRunUntilAndClose stops a run with the deadline between two stages:
// the itinerary is an ordinary pending event, so a later Run finishes it —
// and Close instead unwinds the parked process without another stage running.
func TestStepsRunUntilAndClose(t *testing.T) {
	for _, closeIt := range []bool{false, true} {
		baseline := runtime.NumGoroutine()
		s := New()
		r := s.NewResource("r")
		sp := spawnStaged(s, r, false)
		if now := s.RunUntil(25); now != 25 || len(sp.starts) != 3 || sp.done {
			t.Fatalf("RunUntil(25) = %d with %d stages started, done=%v; want 25, 3, false", now, len(sp.starts), sp.done)
		}
		if closeIt {
			s.Close()
			if sp.unwound < 0 || sp.done || len(sp.starts) != 3 {
				t.Errorf("Close: unwound=%d done=%v stages=%d; want the deferred function run and no further stage", sp.unwound, sp.done, len(sp.starts))
			}
			if _, requests, _ := r.Stats(); requests != 3 {
				t.Errorf("Close: %d requests reached the resource, want 3", requests)
			}
		} else {
			if end := s.Run(); end != 50 || !sp.done || len(sp.starts) != 5 {
				t.Errorf("Run after RunUntil ended at %d, done=%v, %d stages; want 50, true, 5", end, sp.done, len(sp.starts))
			}
			if got := s.Resumes(); got != 2 {
				t.Errorf("%d resumes for one spawn and one five-stage itinerary, want 2", got)
			}
		}
		checkSettled(t, s, baseline)
	}
}

// TestStepsWithoutStages: an itinerary whose first call reports nothing to
// wait for costs no event and no hand-off.
func TestStepsWithoutStages(t *testing.T) {
	s := New()
	calls := 0
	s.Spawn("p", func(p *Proc) {
		p.Steps(func() (Time, bool) { calls++; return 0, false })
	})
	s.Run()
	if calls != 1 || s.Executed() != 1 || s.Resumes() != 1 {
		t.Errorf("step called %d times, %d events, %d resumes; want 1, 1 (the spawn), 1", calls, s.Executed(), s.Resumes())
	}
}

// BenchmarkSteps measures one stage of an itinerary on a FIFO resource — a
// reservation, a calendar round trip and a callback — beside
// BenchmarkResourceUse, which pays a hand-off pair on top. No allocation.
func BenchmarkSteps(b *testing.B) {
	s := New()
	r := s.NewResource("r")
	s.Spawn("user", func(p *Proc) {
		i := 0
		step := func() (Time, bool) {
			if i == b.N {
				return 0, false
			}
			i++
			return r.Reserve(1), true
		}
		b.ReportAllocs()
		b.ResetTimer()
		p.Steps(step)
	})
	s.Run()
	if got := s.Resumes(); got != 2 {
		b.Fatalf("%d resumes, want 2", got)
	}
}
