package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"gamma/internal/config"
	"gamma/internal/sim"
)

// kscalePoint is one (generation, worker count) kernel run: its deterministic
// simulation outcome.
type kscalePoint struct {
	events int64
	end    sim.Time
	ws     sim.WindowStats
}

// buildScaleRing wires a synthetic token ring tuned to stress the window
// scheduler rather than the Gamma model: nodes shards, one token starting on
// each, every token making hops trips to its successor. A token's arrival
// triggers a burst of work events one microsecond apart — the shard promises
// the burst up front (it provably sends nothing until the last event) — and
// the final event forwards the token across the ring channel, whose delivery
// floor is the generation's network latency. The declared lookahead is a
// deliberately useless 1µs: every usable window comes from the promises and
// the per-channel floors, which is exactly the regime a fast fabric puts the
// kernel in.
func buildScaleRing(s *sim.Sim, nodes, hops, work int, floor sim.Dur) {
	shards := make([]*sim.Shard, nodes)
	for i := range shards {
		if i == 0 {
			shards[i] = s.DefaultShard()
		} else {
			shards[i] = s.AddShard()
		}
	}
	for i, sh := range shards {
		next := shards[(i+1)%nodes]
		sh.SetOutFloor(floor) // the ring channel is this shard's only exit
		sh.SetChannelFloor(next, floor)
	}
	var hop func(i, remaining int) func()
	hop = func(i, remaining int) func() {
		return func() {
			sh := shards[i]
			// The burst's first event fires at the arrival instant, so the
			// forwarding send initiates work-1 steps from now — promise
			// exactly that, making the whole burst one window.
			sh.Promise(sh.Now() + sim.Dur(work-1))
			n := work
			var step func()
			step = func() {
				n--
				if n > 0 {
					sh.After(1, step)
				} else if remaining > 0 {
					next := (i + 1) % nodes
					sh.Send(shards[next], sh.Now()+floor, hop(next, remaining-1))
				}
			}
			step()
		}
	}
	// All tokens launch in phase: arrivals then land in shared cohorts, so
	// one barrier serves the whole ring per hop instead of one per straggler.
	for i := range shards {
		shards[i].At(0, hop(i, hops))
	}
}

// kprobePoint is one real-query probe run: the ring point's fields plus the
// query's simulated elapsed time.
type kprobePoint struct {
	kscalePoint
	elapsed sim.Dur
}

// kscaleRealProbe runs one real Gamma query — a 10% non-indexed selection on
// an 8-node machine — under a pinned kernel configuration, independent of the
// suite's kernel knobs. The synthetic ring above reports occupancy near 1.0
// because every shard hosts a token; a real Gamma query leaves most nodes
// idle most rounds (operators finish at different instants, the host
// serializes scheduling), which is the regime the adaptive fusion policy
// exists for. workers <= 1 is the serial oracle; fused and unfused w4 runs
// must reproduce its event count, end time, and query elapsed exactly.
func kscaleRealProbe(o Options, prm config.Params, tuples, workers int, f sim.Fusion) kprobePoint {
	spec := heapRel("Kprobe", tuples, 11)
	var ev atomic.Int64
	var wc sim.WindowCounters
	s := sim.New()
	s.Partition(prm.Net.MinLatency)
	s.SetWorkers(workers)
	s.SetFusion(f)
	s.SetEventCounter(&ev)
	s.SetWindowCounters(&wc)
	setupStart := time.Now()
	m := o.run.gammaOn(s, prm, 8, 0, false, []relSpec{spec})
	o.run.addSetup(setupStart)
	r, ok := m.Relation(spec.name)
	if !ok {
		panic("kernelscale: probe relation missing from machine")
	}
	res := m.RunSelect(heapSel(10).of(r, tuples))
	if res.Err != nil {
		panic(fmt.Sprintf("kernelscale: probe query failed: %v", res.Err))
	}
	o.run.charge(ev.Load(), wc.Stats())
	return kprobePoint{
		kscalePoint: kscalePoint{events: ev.Load(), end: s.Now(), ws: wc.Stats()},
		elapsed:     res.Elapsed,
	}
}

// runKernelScale sweeps the EOT window scheduler across the hardware
// generations and worker counts on the synthetic ring above. The serial
// kernel (one worker) is the oracle and the baseline; two- and four-worker
// runs must execute the identical event count and reach the identical end
// time. On gamma1988 the 4.3ms network floor alone grants enormous windows;
// on rdma the static floor is 2µs and every window the scheduler finds comes
// from promises and earliest output times — the case a static-lookahead
// window degenerates to near-serial on.
func runKernelScale(o Options) *Table {
	gens := config.Generations()
	workersList := []int{1, 2, 4}
	nV := len(workersList)

	nodes := 8 * o.MaxProcs
	if nodes < 16 {
		nodes = 16
	}
	if nodes > 64 {
		nodes = 64
	}
	hops := o.FigureTuples / 100
	if hops < 8 {
		hops = 8
	}
	if hops > 400 {
		hops = 400
	}
	const work = 24

	// Real-query probes: the same generations, but running an actual Gamma
	// selection instead of the synthetic ring — serial oracle, unfused w4,
	// and adaptive w4. Pinned kernel configurations, so these rows are
	// byte-identical whatever kernel the suite itself runs on.
	probeTuples := o.FigureTuples
	if probeTuples > 20000 {
		probeTuples = 20000
	}
	probeCfgs := []struct {
		name    string
		workers int
		f       sim.Fusion
	}{
		{"w1", 1, sim.Fusion{Off: true}},
		{"w4-unfused", 4, sim.Fusion{Off: true}},
		{"w4-adaptive", 4, sim.Fusion{}},
	}
	nP := len(probeCfgs)

	pts := parMap(o, len(gens)*nV, func(i int) kscalePoint {
		gen, v := gens[i/nV], i%nV
		prm := gen.Params()
		var ev atomic.Int64
		var wc sim.WindowCounters
		s := sim.New()
		s.Partition(1)
		s.SetWorkers(workersList[v])
		s.SetEventCounter(&ev)
		s.SetWindowCounters(&wc)
		buildScaleRing(s, nodes, hops, work, prm.Net.MinLatency)
		end := s.Run()
		o.run.charge(ev.Load(), wc.Stats())
		return kscalePoint{events: ev.Load(), end: end, ws: wc.Stats()}
	})

	probes := parMap(o, len(gens)*nP, func(i int) kprobePoint {
		gen, c := gens[i/nP], probeCfgs[i%nP]
		return kscaleRealProbe(o, gen.Params(), probeTuples, c.workers, c.f)
	})

	t := &Table{
		Title:   fmt.Sprintf("EOT kernel scaling (%d-shard ring, %d-event bursts)", nodes, work),
		Unit:    "counts at 4 workers",
		Columns: []string{"events", "simulated s", "windows", "occupancy", "events/window", "promises"},
	}
	for gi, gen := range gens {
		base := pts[gi*nV] // one worker: the serial oracle
		for v := 1; v < nV; v++ {
			pt := pts[gi*nV+v]
			if pt.events != base.events || pt.end != base.end {
				panic(fmt.Sprintf("kernelscale: %s at %d workers diverged from the serial oracle: %d events to %v vs %d to %v",
					gen.Name, workersList[v], pt.events, pt.end, base.events, base.end))
			}
		}
		p4 := pts[gi*nV+nV-1]
		epw := 0.0
		if p4.ws.Windows > 0 {
			epw = float64(p4.ws.WindowEvents) / float64(p4.ws.Windows)
		}
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%s: %s", gen.Name, gen.Desc), Cells: []Cell{
			{Measured: float64(base.events)},
			{Measured: float64(base.end) / 1e6},
			{Measured: float64(p4.ws.Windows)},
			{Measured: p4.ws.Occupancy()},
			{Measured: epw},
			{Measured: float64(p4.ws.Promises)},
		}})
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: channel floor %v; %d windows at occupancy %.0f%%, %.0f events/window",
			gen.Name, gen.Params().Net.MinLatency, p4.ws.Windows, 100*p4.ws.Occupancy(), epw))
	}
	// Real-query rows: occupancy and fusion activity on an actual Gamma
	// selection, where most shards sit idle most rounds — the regime the
	// synthetic ring's near-1.0 occupancy hides.
	for gi, gen := range gens {
		oracle := probes[gi*nP]
		unfused, adaptive := probes[gi*nP+1], probes[gi*nP+2]
		for v := 1; v < nP; v++ {
			pp := probes[gi*nP+v]
			if pp.events != oracle.events || pp.end != oracle.end || pp.elapsed != oracle.elapsed {
				panic(fmt.Sprintf("kernelscale: %s real probe (%s) diverged from the serial oracle: %d events to %v (query %v) vs %d to %v (query %v)",
					gen.Name, probeCfgs[v].name, pp.events, pp.end, pp.elapsed, oracle.events, oracle.end, oracle.elapsed))
			}
		}
		epw := 0.0
		if adaptive.ws.Windows > 0 {
			epw = float64(adaptive.ws.WindowEvents) / float64(adaptive.ws.Windows)
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%s: real query (8-node 10%% selection)", gen.Name),
			Cells: []Cell{
				{Measured: float64(oracle.events)},
				{Measured: float64(oracle.elapsed) / 1e6},
				{Measured: float64(adaptive.ws.Windows)},
				{Measured: adaptive.ws.Occupancy()},
				{Measured: epw},
				{Measured: float64(adaptive.ws.Promises)},
			},
		})
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s real probe: occupancy %.0f%% adaptive vs %.0f%% unfused (ring: %.0f%%), %.1f events/window, %d fuse / %d split ops",
			gen.Name, 100*adaptive.ws.Occupancy(), 100*unfused.ws.Occupancy(),
			100*pts[gi*nV+nV-1].ws.Occupancy(), epw, adaptive.ws.FuseOps, adaptive.ws.SplitOps))
	}
	t.Notes = append(t.Notes,
		"One worker runs the serial oracle; multi-worker runs must match its event count and end time exactly.",
		"Real-query rows run a pinned 8-node Gamma selection per kernel config; cells report the adaptive-fusion w4 run.")
	return t
}
