package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gamma/internal/trace"
)

// Tests of harness.go: whatever the frozen benchmark harness tells the
// partitioning shim, a simulation stays one calendar.

// shimModes are the ways the harness builds a simulation: plainly, and
// through Partition/SetWorkers/AddShard at the settings that once selected
// the merged loop and serialized or parallel windows.
var shimModes = []struct {
	name        string
	partitioned bool
	lookahead   Dur
	workers     int
}{
	{"unpartitioned", false, 0, 0},
	{"merged", true, 0, 0},
	{"lookahead/workers=1", true, 10, 1},
	{"lookahead/workers=4", true, 10, 4},
}

// newShards returns a simulation and n handles onto its calendar, made
// through the shim when partitioned.
func newShards(partitioned bool, lookahead Dur, workers, n int) (*Sim, []*Shard) {
	s := New()
	if partitioned {
		s.Partition(lookahead)
		s.SetWorkers(workers)
	}
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = s.DefaultShard()
		if partitioned && i > 0 {
			shards[i] = s.AddShard()
		}
	}
	return s, shards
}

// The ring of benchmark/probes.go's simRing, with shorter bursts.
const (
	ringNodes   = 64
	ringHops    = 8
	ringWork    = 16
	ringLatency = 10 * Microsecond
	ringSteps   = ringNodes * (ringHops + 1) * ringWork
)

// ringRun is what a run of the ring leaves behind.
type ringRun struct {
	trace    []byte
	executed uint64
	end      Time
	stats    []string // per CPU: busy, requests, waited
}

// runRing builds the probes' ring — per node a burst of local events, each
// charging the node's CPU with UseAsync, then one message to the right
// neighbour — traced, and runs it. With viaShim the model schedules the way
// the probe does, through Partition, SetWorkers, AddShard and Shard.Send;
// otherwise with Sim.At alone.
func runRing(t *testing.T, viaShim bool, lookahead Dur, workers int) ringRun {
	t.Helper()
	s, shards := newShards(viaShim, lookahead, workers, ringNodes)
	col := trace.NewCollector()
	s.SetSink(col)
	cpus := make([]*Resource, ringNodes)
	for i, sh := range shards {
		cpus[i] = sh.NewResource(fmt.Sprintf("cpu%d", i))
	}
	send := func(from, to int, at Time, fn func()) {
		if viaShim {
			shards[from].Send(shards[to], at, fn)
		} else {
			s.At(at, fn)
		}
	}
	var hop func(i, remaining int) func()
	hop = func(i, remaining int) func() {
		return func() {
			n := ringWork
			var step func()
			step = func() {
				cpus[i].UseAsync(1)
				n--
				if n > 0 {
					shards[i].After(0, step)
				} else if remaining > 0 {
					next := (i + 1) % ringNodes
					send(i, next, shards[i].Now()+ringLatency, hop(next, remaining-1))
				}
			}
			step()
		}
	}
	for i, sh := range shards {
		sh.At(Time(i%4), hop(i, ringHops))
	}
	r := ringRun{trace: traceBytes(t, s, col), executed: s.Executed(), end: s.Now()}
	for _, c := range cpus {
		busy, requests, waited := c.Stats()
		r.stats = append(r.stats, fmt.Sprint(busy, requests, waited))
	}
	return r
}

// sameRun reports how got differs from want, or "".
func sameRun(got, want ringRun) string {
	switch {
	case got.executed != want.executed:
		return fmt.Sprintf("executed %d events, want %d", got.executed, want.executed)
	case got.end != want.end:
		return fmt.Sprintf("ended at %v, want %v", got.end, want.end)
	case fmt.Sprint(got.stats) != fmt.Sprint(want.stats):
		return "per-resource statistics differ"
	case !bytes.Equal(got.trace, want.trace):
		return fmt.Sprintf("trace differs (%d vs %d bytes)", len(got.trace), len(want.trace))
	}
	return ""
}

// TestZeroLookaheadMatchesUnpartitioned: the ring built as the probe builds
// it — Partition(0), SetWorkers(4), AddShard, Send — is the ring built with
// Sim.At: the same events (a callback and an elided completion per step),
// clock, resource statistics and trace.
func TestZeroLookaheadMatchesUnpartitioned(t *testing.T) {
	plain := runRing(t, false, 0, 0)
	if plain.executed != 2*ringSteps {
		t.Fatalf("plain ring executed %d events, want %d", plain.executed, 2*ringSteps)
	}
	if diff := sameRun(runRing(t, true, 0, 4), plain); diff != "" {
		t.Error("through the shim: " + diff)
	}
}

// TestZeroLookaheadIgnoresWorkers: SetWorkers changes nothing.
func TestZeroLookaheadIgnoresWorkers(t *testing.T) {
	if diff := sameRun(runRing(t, true, 0, 8), runRing(t, true, 0, 1)); diff != "" {
		t.Error("8 workers vs 1: " + diff)
	}
}

// TestPartitionedTraceByteIdentity: a positive lookahead at any worker count
// changes nothing either.
func TestPartitionedTraceByteIdentity(t *testing.T) {
	plain := runRing(t, false, 0, 0)
	for _, workers := range []int{1, 2, 4} {
		if diff := sameRun(runRing(t, true, ringLatency, workers), plain); diff != "" {
			t.Errorf("lookahead %v, %d workers: %s", ringLatency, workers, diff)
		}
	}
}

// TestPartitionedDeterminism: two identical runs through the shim agree.
func TestPartitionedDeterminism(t *testing.T) {
	if diff := sameRun(runRing(t, true, ringLatency, 4), runRing(t, true, ringLatency, 4)); diff != "" {
		t.Error("second run: " + diff)
	}
}

// TestPartitionedProcessPanicPropagates: a process panic surfaces from Run
// with the same message however the simulation was built.
func TestPartitionedProcessPanicPropagates(t *testing.T) {
	run := func(viaShim bool) string {
		s, shards := newShards(viaShim, 10, 2, 2)
		s.Spawn("boom", func(p *Proc) {
			p.Sleep(5)
			panic("kaboom")
		})
		shards[1].At(0, func() {})
		return runPanics(s)
	}
	plain, shim := run(false), run(true)
	if !strings.Contains(plain, `process "boom" panicked: kaboom`) {
		t.Fatalf("panic message: %q", plain)
	}
	if shim != plain {
		t.Errorf("through the shim the panic reads %q, want %q", shim, plain)
	}
}

// TestPartitionedRunUntil: a handle's clock is the simulation's, through
// RunUntil and Run.
func TestPartitionedRunUntil(t *testing.T) {
	s, sh := newShards(true, 10, 4, 2)
	fired := 0
	sh[0].At(5, func() { fired++ })
	sh[1].At(50, func() { fired++ })
	if end := s.RunUntil(20); end != 20 || fired != 1 {
		t.Fatalf("RunUntil(20) = %v with %d events fired, want 20 and 1", end, fired)
	}
	if sh[0].Now() != 20 || sh[1].Now() != 20 {
		t.Fatalf("handle clocks %v/%v, want 20/20", sh[0].Now(), sh[1].Now())
	}
	if s.Run(); fired != 2 || sh[1].Now() != 50 {
		t.Fatalf("Run fired %d events by %v, want 2 by 50", fired, sh[1].Now())
	}
}

// TestWindowStatsAndCounters: the window counters the harness sums stay zero.
func TestWindowStatsAndCounters(t *testing.T) {
	var wc WindowCounters
	wc.Add(WindowStats{Windows: 3, WindowEvents: 40, FuseOps: 1, SplitOps: 1})
	if ws := wc.Stats(); ws != (WindowStats{}) || ws.Occupancy() != 0 {
		t.Errorf("Stats() = %+v with occupancy %v, want zero", ws, ws.Occupancy())
	}
}
