package sim

import (
	"bytes"
	"fmt"
	"testing"

	"gamma/internal/trace"
)

// testFusion is an aggressive policy configuration for tests: short
// evaluation periods and frequent probes so fuse/split transitions happen
// within small workloads.
func testFusion() Fusion {
	return Fusion{FuseBelow: 24, SplitAbove: 256, EvalRounds: 4, ProbePeriods: 2, Quantum: 512}
}

// buildPhasedRing is buildKernelCluster with a workload phase change: each
// node runs thinHops rounds of a single local event per hop (windows far
// thinner than any fuse threshold), then heavyHops rounds of heavyWork
// chained events per hop (windows far thicker than any split threshold).
// The thin phase drives the adaptive policy up to full fusion; the heavy
// phase must make it split back down.
func buildPhasedRing(s *Sim, nodes, thinHops, heavyHops, heavyWork int) {
	shards := make([]*Shard, nodes)
	cpus := make([]*Resource, nodes)
	for i := 0; i < nodes; i++ {
		sh := s.DefaultShard()
		if s.Partitioned() && i > 0 {
			sh = s.AddShard()
		}
		shards[i] = sh
		cpus[i] = sh.NewResource(fmt.Sprintf("cpu%d", i))
	}
	var hop func(i, remaining int) func()
	hop = func(i, remaining int) func() {
		return func() {
			sh := shards[i]
			n := 1
			if remaining < heavyHops {
				n = heavyWork
			}
			var step func()
			step = func() {
				cpus[i].UseAsync(1)
				n--
				if n > 0 {
					sh.After(0, step)
				} else if remaining > 0 {
					next := (i + 1) % len(shards)
					sh.Send(shards[next], sh.Now()+kernelLookahead, hop(next, remaining-1))
				}
			}
			step()
		}
	}
	for i := range shards {
		shards[i].At(Time(i%4), hop(i, thinHops+heavyHops))
	}
}

// runPhasedRing runs the phased ring under a kernel/fusion configuration
// and returns the trace bytes, stats, fired-event count, and final clock.
// workers <= 1 is the serial oracle (fusion never engages: runWindows only
// runs with workers > 1).
func runPhasedRing(t testing.TB, workers int, f Fusion, traced bool) (traceBytes []byte, ws WindowStats, fired uint64, end Time) {
	t.Helper()
	s := New()
	s.Partition(kernelLookahead)
	s.SetWorkers(workers)
	s.SetFusion(f)
	var col *trace.Collector
	if traced {
		col = trace.NewCollector()
		s.SetSink(col)
	}
	buildPhasedRing(s, 8, 64, 24, 400)
	end = s.Run()
	ws = s.WindowStats()
	fired = s.fired()
	if traced {
		var buf bytes.Buffer
		if err := col.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		traceBytes = buf.Bytes()
	}
	return traceBytes, ws, fired, end
}

// TestFusionTraceByteIdentity: the adaptive scheduler must produce
// byte-identical traces, event counts, and final clocks at every fusion
// configuration — off, adaptive (with transitions firing), and starting
// fully fused — against the serial oracle.
func TestFusionTraceByteIdentity(t *testing.T) {
	ref, _, refExec, refEnd := runPhasedRing(t, 1, Fusion{Off: true}, true)
	if len(ref) == 0 {
		t.Fatal("reference run emitted no trace")
	}
	cases := []struct {
		name string
		f    Fusion
	}{
		{"off", Fusion{Off: true}},
		{"adaptive", testFusion()},
		{"all", func() Fusion { f := testFusion(); f.InitLevel = -1; return f }()},
	}
	for _, w := range []int{2, 4} {
		for _, tc := range cases {
			got, ws, exec, end := runPhasedRing(t, w, tc.f, true)
			if exec != refExec {
				t.Errorf("workers=%d fusion=%s: executed %d events, serial %d", w, tc.name, exec, refExec)
			}
			if end != refEnd {
				t.Errorf("workers=%d fusion=%s: final clock %v, serial %v", w, tc.name, end, refEnd)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("workers=%d fusion=%s: trace differs from serial oracle (%d vs %d bytes)", w, tc.name, len(got), len(ref))
			}
			if tc.name == "adaptive" && ws.FuseOps == 0 {
				t.Errorf("workers=%d: thin phase never fused (stats %+v)", w, ws)
			}
			if tc.name != "off" && ws.SplitOps == 0 {
				t.Errorf("workers=%d fusion=%s: heavy phase never split (stats %+v)", w, tc.name, ws)
			}
		}
	}
}

// TestFusionStatsConsistency: the WindowStats invariants survive fuse and
// split transitions — every round accounts all shards, every event fires
// inside a window, group dispatches never exceed shard dispatches, promise
// counts stay mode-independent — and two identical adaptive runs agree
// counter for counter.
func TestFusionStatsConsistency(t *testing.T) {
	_, ws, exec, _ := runPhasedRing(t, 4, testFusion(), false)
	if ws.FuseOps == 0 || ws.SplitOps == 0 {
		t.Fatalf("workload did not exercise both transitions: %+v", ws)
	}
	if ws.ShardRounds != ws.Windows*8 {
		t.Errorf("ShardRounds %d != Windows %d x 8 shards", ws.ShardRounds, ws.Windows)
	}
	if ws.WindowEvents != int64(exec) {
		t.Errorf("WindowEvents %d != fired %d: some events fired outside windows", ws.WindowEvents, exec)
	}
	if ws.GroupWindows <= 0 || ws.GroupWindows > ws.ShardWindows {
		t.Errorf("GroupWindows %d outside (0, ShardWindows %d]", ws.GroupWindows, ws.ShardWindows)
	}
	if ws.ShardWindows <= 0 || ws.ShardWindows > ws.ShardRounds {
		t.Errorf("ShardWindows %d outside (0, ShardRounds %d]", ws.ShardWindows, ws.ShardRounds)
	}
	_, ws2, _, _ := runPhasedRing(t, 4, testFusion(), false)
	if ws != ws2 {
		t.Errorf("adaptive stats differ across identical runs:\n  %+v\n  %+v", ws, ws2)
	}
	// The serial oracle records no window activity but the same model-side
	// promise count (none in this ring) and event total.
	_, wsSerial, execSerial, _ := runPhasedRing(t, 1, testFusion(), false)
	if execSerial != exec {
		t.Errorf("serial executed %d, windowed %d", execSerial, exec)
	}
	if wsSerial.Windows != 0 || wsSerial.FuseOps != 0 {
		t.Errorf("serial run recorded window activity: %+v", wsSerial)
	}
	if wsSerial.Promises != ws.Promises {
		t.Errorf("promise count mode-dependent: serial %d, windowed %d", wsSerial.Promises, ws.Promises)
	}
}

// TestFusionLevelDegeneratesToMerged: a fully fused simulation reports a
// single group covering every shard and still drains the calendar; the
// level is observable through FusionLevel.
func TestFusionLevelDegeneratesToMerged(t *testing.T) {
	s := New()
	s.Partition(kernelLookahead)
	s.SetWorkers(4)
	f := testFusion()
	f.InitLevel = -1
	// Pin full fusion: thresholds no thin workload can cross downward.
	f.SplitAbove = 1 << 30
	f.ProbePeriods = 1 << 30
	s.SetFusion(f)
	buildKernelCluster(s, 8, 16, 4)
	s.Run()
	if s.FusionLevel() != 3 {
		t.Errorf("FusionLevel = %d, want 3 (8 shards fully fused)", s.FusionLevel())
	}
	ws := s.WindowStats()
	if ws.GroupWindows != ws.Windows {
		t.Errorf("fully fused: GroupWindows %d != Windows %d (exactly one group per round)", ws.GroupWindows, ws.Windows)
	}
}

// TestOutboxSendPathZeroAllocs pins the cross-shard send path at zero
// allocations per event in steady state: outbox buckets and destination
// lists are pooled, and drainOutbox returns them with capacity retained, so
// a sustained message rate allocates nothing after warmup.
func TestOutboxSendPathZeroAllocs(t *testing.T) {
	s := New()
	s.Partition(10)
	a, b := s.AddShard(), s.AddShard()
	sh0 := s.DefaultShard()
	// Warm up: open buckets toward both destinations and let the heaps and
	// bucket slices reach steady capacity.
	cycle := func() {
		for i := 0; i < 16; i++ {
			sh0.outbox.put(len(s.shards), a.id, event{at: Time(i)})
			sh0.outbox.put(len(s.shards), b.id, event{at: Time(i)})
		}
		s.drainOutbox(sh0)
		for a.events.len() > 0 {
			a.events.pop()
		}
		for b.events.len() > 0 {
			b.events.pop()
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("cross-shard send path allocates %.1f allocs per window, want 0", avg)
	}
}
