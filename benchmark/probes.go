package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/disk"
	"gamma/internal/nose"
	"gamma/internal/quel"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/teradata"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
	"gamma/internal/wiss"
)

// Layer probes measure single layers from outside, through their public
// functions only, at fixed sizes: 1M kernel events; 100k-tuple relations on
// an 8+8 machine (the middle size of Tables 1-2). Every probe checks a known
// answer; each check is one operation of fail_share. Host-time metrics are
// what an optimisation moves; the simulated counts must not move under a
// host-only change.
const (
	probeTuples  = 100000
	probeBprime  = probeTuples / 10
	probeEvents  = 1000000
	ringNodes    = 64
	ringHops     = 64
	ringWork     = 128
	ringLatency  = 10 * sim.Microsecond
	generateSize = 1000000
)

// probesResult is the answer of a probes child.
type probesResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

type probes struct {
	rec  *recorder
	seed uint64
	res  probesResult
	cur  int    // open probe.<metric> span
	name string // its metric, for failure messages
}

// probe runs fn under a probe.<metric> span. A panic in a layer is a failed
// operation, not a dead harness.
func (p *probes) probe(metric string, fn func()) {
	p.name = metric
	p.cur = p.rec.begin(0, "probe."+metric, "harness")
	defer func() {
		p.rec.end(p.cur, 1)
		if r := recover(); r != nil {
			p.check(fmt.Sprintf("no panic (%v)", r), false)
		}
	}()
	fn()
}

// call wraps one call into a layer in a span and returns its host duration.
func (p *probes) call(name, layer string, count int, fn func()) time.Duration {
	id := p.rec.begin(p.cur, name, layer)
	start := time.Now()
	fn()
	d := time.Since(start)
	p.rec.end(id, int64(count))
	return d
}

// callMedian is call repeated k times, for calls so short that one garbage
// collection or page fault doubles them; it returns the median duration.
func (p *probes) callMedian(k int, name, layer string, count int, fn func()) time.Duration {
	ds := make([]float64, k)
	for i := range ds {
		ds[i] = float64(p.call(name, layer, count, fn))
	}
	return time.Duration(median(ds))
}

// check records one known-answer check.
func (p *probes) check(what string, ok bool) {
	p.res.Attempted++
	if !ok {
		p.res.Failed++
		p.res.Failures = append(p.res.Failures, p.name+": "+what)
	}
}

func (p *probes) set(metric string, v float64) { p.res.Metrics[metric] = v }

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
func usPer(d time.Duration, n int) float64 { return nsPer(d, n) / 1e3 }

// ratio is a's share of a+b.
func ratio(a, b int64) float64 { return div(float64(a), float64(a+b)) }

// runProbesChild runs the single-core probe set, or the *_mc set when the
// child was started at GOMAXPROCS=P.
func runProbesChild(spec childSpec) (probesResult, error) {
	p := &probes{seed: spec.Seed, res: probesResult{Metrics: map[string]float64{}}}
	if spec.Trace {
		p.rec = newRecorder()
	}
	if spec.Multicore {
		p.probe("sim.handoff_ns_per_switch_mc", func() { p.simHandoff("sim.handoff_ns_per_switch_mc") })
		p.probe("sim.windows_ns_per_event_mc", func() {
			p.simRing("sim.windows_ns_per_event_mc", ringLatency, hostP())
		})
	} else {
		// Generate first: it is memoized, and this probe wants it cold.
		p.probe("wisconsin.generate_ns_per_tuple", p.wisconsinGenerate)
		p.probe("sim.calendar_ns_per_event", p.simCalendar)
		p.probe("sim.handoff_ns_per_switch", func() { p.simHandoff("sim.handoff_ns_per_switch") })
		p.probe("sim.resource_use_ns", p.simResource)
		p.probe("sim.waitq_pingpong_ns", p.simWaitQ)
		p.probe("sim.spawn_ns", p.simSpawn)
		p.probe("sim.merged_ns_per_event", func() { p.simRing("sim.merged_ns_per_event", 0, 1) })
		p.probe("core", p.coreProbes)
		p.probe("wiss", p.wissProbes)
		p.probe("nose", p.noseProbes)
		p.probe("disk.io_ns_per_page", p.diskProbe)
		p.probe("rel.sort_ns_per_tuple", p.relSort)
		p.probe("trace", p.traceProbes)
		p.probe("teradata", p.teradataProbes)
	}
	if p.rec != nil {
		p.res.Spans = p.rec.spans
	}
	return p.res, nil
}

// --- sim ------------------------------------------------------------------

// simCalendar fires 1M callbacks with 1k pending: the event heap alone, no
// process hand-off.
func (p *probes) simCalendar() {
	const pending = 1000
	s := sim.New()
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired+pending <= probeEvents {
			s.After(sim.Dur(1+fired%97), fn)
		}
	}
	for i := 0; i < pending; i++ {
		s.After(sim.Dur(1+i%97), fn)
	}
	d := p.call("sim.Run", "sim", probeEvents, func() { s.Run() })
	p.check("every scheduled event fired", fired == probeEvents && s.Executed() == probeEvents)
	p.set("sim.calendar_ns_per_event", nsPer(d, probeEvents))
}

// simHandoff has 64 processes sleep in lock step: every Sleep is one park
// and one resume through the kernel loop.
func (p *probes) simHandoff(metric string) {
	const procs, sleeps = 64, 4096
	s := sim.New()
	for i := 0; i < procs; i++ {
		s.Spawn("sleeper", func(pr *sim.Proc) {
			for j := 0; j < sleeps; j++ {
				pr.Sleep(1)
			}
		})
	}
	var end sim.Time
	d := p.call("sim.Proc.Sleep", "sim", procs*sleeps, func() { end = s.Run() })
	p.check("clock advanced one tick per sleep", end == sleeps)
	p.set(metric, nsPer(d, procs*sleeps))
}

func (p *probes) simResource() {
	const procs, uses = 16, 8192
	s := sim.New()
	r := s.NewResource("r")
	for i := 0; i < procs; i++ {
		s.Spawn("user", func(pr *sim.Proc) {
			for j := 0; j < uses; j++ {
				r.Use(pr, 1)
			}
		})
	}
	d := p.call("sim.Resource.Use", "sim", procs*uses, func() { s.Run() })
	busy, requests, _ := r.Stats()
	p.check("resource served every request", busy == procs*uses && requests == procs*uses)
	p.set("sim.resource_use_ns", nsPer(d, procs*uses))
}

// simWaitQ is the mailbox pattern: two processes alternate Park/WakeOne.
func (p *probes) simWaitQ() {
	const rounds = 200000
	s := sim.New()
	ping, pong := s.NewWaitQ("ping"), s.NewWaitQ("pong")
	done := 0
	s.Spawn("a", func(pr *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Park(pr)
			pong.WakeOne()
		}
	})
	s.Spawn("b", func(pr *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.WakeOne()
			pong.Park(pr)
			done++
		}
	})
	d := p.call("sim.WaitQ.Park", "sim", rounds, func() { s.Run() })
	p.check("every round trip completed", done == rounds)
	p.set("sim.waitq_pingpong_ns", nsPer(d, rounds))
}

// simSpawn starts 100k processes that exit at once, 100 per simulated tick
// so the goroutines alive at any moment stay bounded.
func (p *probes) simSpawn() {
	const total, batch = 100000, 100
	s := sim.New()
	ran := 0
	s.Spawn("spawner", func(pr *sim.Proc) {
		for i := 0; i < total/batch; i++ {
			for j := 0; j < batch; j++ {
				s.Spawn("child", func(*sim.Proc) { ran++ })
			}
			pr.Sleep(1)
		}
	})
	d := p.call("sim.Spawn", "sim", total, func() { s.Run() })
	p.check("every spawned process ran", ran == total)
	p.set("sim.spawn_ns", nsPer(d, total))
}

// simRing is the kernel's token-ring model, one shard per node: bursts of
// local events charging a CPU resource, then one message to the right
// neighbour at the declared latency. Lookahead 0 runs the merged loop over
// 64 shards; positive lookahead with several workers runs parallel windows.
func (p *probes) simRing(metric string, lookahead sim.Dur, workers int) {
	s := sim.New()
	s.Partition(lookahead)
	s.SetWorkers(workers)
	shards := make([]*sim.Shard, ringNodes)
	cpus := make([]*sim.Resource, ringNodes)
	for i := range shards {
		shards[i] = s.DefaultShard()
		if i > 0 {
			shards[i] = s.AddShard()
		}
		cpus[i] = shards[i].NewResource(fmt.Sprintf("cpu%d", i))
	}
	var hop func(i, remaining int) func()
	hop = func(i, remaining int) func() {
		return func() {
			sh, n := shards[i], ringWork
			var step func()
			step = func() {
				cpus[i].UseAsync(1)
				n--
				if n > 0 {
					sh.After(0, step)
				} else if remaining > 0 {
					next := (i + 1) % ringNodes
					sh.Send(shards[next], sh.Now()+ringLatency, hop(next, remaining-1))
				}
			}
			step()
		}
	}
	for i := range shards {
		shards[i].At(sim.Time(i%4), hop(i, ringHops))
	}
	// Every step is two events: the callback and the completion event its
	// UseAsync schedules.
	const steps, events = ringNodes * (ringHops + 1) * ringWork, 2 * ringNodes * (ringHops + 1) * ringWork
	d := p.call("sim.Run", "sim", events, func() { s.Run() })
	var requests int64
	for _, c := range cpus {
		_, n, _ := c.Stats()
		requests += n
	}
	p.check("ring executed every event", requests == steps && s.Executed() == events)
	p.set(metric, nsPer(d, events))
}

// --- core -----------------------------------------------------------------

func heapScan(r *core.Relation, pred rel.Pred) core.ScanSpec {
	return core.ScanSpec{Rel: r, Pred: pred, Path: core.PathHeap}
}

func mustRel(m *core.Machine, name string) *core.Relation {
	r, ok := m.Relation(name)
	if !ok {
		panic("relation " + name + " missing from the probe image")
	}
	return r
}

func (p *probes) coreProbes() {
	const n = probeTuples
	prm := config.Default()
	a := wisconsin.Generate(n, p.seed)
	bp := wisconsin.Generate(probeBprime, p.seed+6)
	u1 := rel.Unique1

	var m *core.Machine
	d := p.call("core.Machine.Load", "core", 2*n+probeBprime, func() {
		m = core.NewMachine(sim.New(), &prm, 8, 8)
		m.Load(core.LoadSpec{Name: "aheap", Strategy: core.Hashed, PartAttr: rel.Unique1}, a)
		m.Load(core.LoadSpec{Name: "aidx", Strategy: core.Hashed, PartAttr: rel.Unique1,
			ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2}}, a)
		m.Load(core.LoadSpec{Name: "bprime", Strategy: core.Hashed, PartAttr: rel.Unique1}, bp)
	})
	p.check("load kept every tuple", mustRel(m, "aheap").Count() == n && mustRel(m, "aidx").Count() == n)
	p.set("core.load_ns_per_tuple", nsPer(d, 2*n+probeBprime))

	var snap *core.Snapshot
	d = p.callMedian(9, "core.Machine.Snapshot", "core", 1, func() { snap = m.Snapshot() })
	p.set("core.snapshot_ms", d.Seconds()*1e3)

	d = p.callMedian(9, "core.RestoreMachine", "core", 1, func() { m = core.RestoreMachine(sim.New(), snap) })
	p.check("restore kept every tuple", mustRel(m, "aidx").Count() == n)
	p.set("core.restore_ms", d.Seconds()*1e3)

	// 10 % heap selection.
	heap, idx := mustRel(m, "aheap"), mustRel(m, "aidx")
	var res core.Result
	ev0 := m.Sim.Executed()
	d = p.call("core.Machine.RunSelect", "core", n, func() {
		res = m.RunSelect(core.SelectQuery{Scan: heapScan(heap, rel.Between(rel.Unique2, 0, n/10-1))})
	})
	p.check("10% of 100k is 10,000 tuples", res.Tuples == n/10 && res.Err == nil)
	p.set("core.select_heap_ns_per_tuple", nsPer(d, n))
	p.set("core.events_per_select", float64(m.Sim.Executed()-ev0))
	m.Drop(res.ResultName)

	// 1 % selections through the clustered index.
	const queries = 20
	got := 0
	d = p.call("core.Machine.RunSelect", "core", queries, func() {
		for i := 0; i < queries; i++ {
			lo := int32(i * n / queries)
			r := m.RunSelect(core.SelectQuery{Scan: core.ScanSpec{Rel: idx,
				Pred: rel.Between(rel.Unique1, lo, lo+n/100-1), Path: core.PathClustered}})
			got += r.Tuples
			m.Drop(r.ResultName)
		}
	})
	p.check("1% of 100k is 1,000 tuples", got == queries*n/100)
	p.set("core.select_index_us_per_query", usPer(d, queries))

	// One 1 % selection through the dense index on unique2 (Table 1's third
	// row): the plan that re-reads data pages, so the buffer pool sees hits.
	p.call("core.Machine.RunSelect", "core", 1, func() {
		res = m.RunSelect(core.SelectQuery{Scan: core.ScanSpec{Rel: idx,
			Pred: rel.Between(rel.Unique2, 0, n/100-1), Path: core.PathNonClustered}})
	})
	p.check("1% of 100k through the dense index is 1,000 tuples", res.Tuples == n/100)

	// Modelled-component statistics of the 22 selections above. They are
	// simulated quantities: a host-only change must not move them.
	hits, misses := m.PoolStats()
	p.set("wiss.pool_hit_ratio", ratio(hits, misses))
	var seq, random int64
	for _, nd := range m.Disk {
		st := nd.Drive.Stats()
		seq += st.SeqReads
		random += st.RandReads
	}
	p.set("disk.seq_read_share", ratio(seq, random))
	ns := m.Net.Stats()
	p.set("nose.shortcircuit_share", ratio(ns.LocalMsgs, ns.DataPackets))

	// joinABprime on a fresh image.
	join := func(m *core.Machine) core.JoinQuery {
		return core.JoinQuery{
			Build: heapScan(mustRel(m, "bprime"), rel.True()), BuildAttr: rel.Unique2,
			Probe: heapScan(mustRel(m, "aheap"), rel.True()), ProbeAttr: rel.Unique2,
			Mode: core.Remote,
		}
	}
	m = core.RestoreMachine(sim.New(), snap)
	d = p.call("core.Machine.RunJoin", "core", n+probeBprime, func() { res = m.RunJoin(join(m)) })
	p.check("joinABprime returns |Bprime| tuples", res.Tuples == probeBprime && res.Err == nil)
	p.set("core.join_ns_per_tuple", nsPer(d, n+probeBprime))
	p.set("core.events_per_join", float64(m.Sim.Executed()))
	untraced, untracedSim := d, res.Elapsed

	// The same join with the machine's trace collector on.
	m = core.RestoreMachine(sim.New(), snap)
	m.EnableTrace()
	d = p.call("core.Machine.RunJoin", "trace", n+probeBprime, func() { res = m.RunJoin(join(m)) })
	p.check("tracing changes no simulated result", res.Tuples == probeBprime && res.Elapsed == untracedSim)
	p.set("trace.query_overhead", d.Seconds()/untraced.Seconds())

	// Scalar aggregate.
	m = core.RestoreMachine(sim.New(), snap)
	var agg core.AggResult
	d = p.call("core.Machine.RunAgg", "core", n, func() {
		agg = m.RunAgg(core.AggQuery{Scan: heapScan(mustRel(m, "aheap"), rel.True()),
			Fn: core.Count, Attr: rel.Unique1, Mode: core.Remote})
	})
	p.check("count(*) of 100k is 100,000", agg.Groups[0] == n && agg.Tuples == n)
	p.set("core.agg_ns_per_tuple", nsPer(d, n))

	// 200 of each Table 3 update kind: the write path beside the reads.
	const each = 200
	idx = mustRel(m, "aidx")
	failed := 0
	upd := func(q core.UpdateQuery) {
		q.Rel = idx
		if r := m.RunUpdate(q); r.Err != nil {
			failed++
		}
	}
	d = p.call("core.Machine.RunUpdate", "core", 5*each, func() {
		for i := int32(0); i < each; i++ {
			var t rel.Tuple
			t.Set(rel.Unique1, n+i)
			t.Set(rel.Unique2, n+i)
			upd(core.UpdateQuery{Kind: core.AppendTuple, Tuple: t})
		}
		for i := int32(0); i < each; i++ {
			upd(core.UpdateQuery{Kind: core.DeleteByKey, Key: n + i})
			upd(core.UpdateQuery{Kind: core.ModifyKeyAttr, Key: 3 * i, Attr: rel.Unique1, NewValue: n + 1000 + i})
			upd(core.UpdateQuery{Kind: core.ModifyNonIndexed, Key: n/2 + i, Attr: rel.OddOnePercent, NewValue: 1})
			upd(core.UpdateQuery{Kind: core.ModifyIndexed, Key: n/2 + i, Attr: rel.Unique2, NewValue: n + 5000 + i})
		}
	})
	p.check("updates leave 100,000 tuples", failed == 0 && idx.Count() == n)
	p.set("core.update_us_per_op", usPer(d, 5*each))
	// Pages of the shared image the updates had to privatize.
	p.set("wiss.cow_clones", float64(m.COWClones()))

	// Closed-loop multiuser run, MPL 8, shared scans on.
	m = core.RestoreMachine(sim.New(), snap)
	m.EnableSharedScans()
	heap = mustRel(m, "aheap")
	var wr core.WorkloadResult
	const terminals, perTerminal = 8, 2
	d = p.call("core.Machine.RunWorkload", "core", terminals*perTerminal, func() {
		wr = m.RunWorkload(core.WorkloadSpec{
			Terminals: terminals, PerTerminal: perTerminal, Ramp: sim.Second, Seed: p.seed,
			Make: func(term, q int, rng func() uint64) core.ConcurrentQuery {
				lo := int32(rng() % uint64(n-n/100))
				return core.ConcurrentQuery{Select: &core.SelectQuery{
					Scan:   heapScan(heap, rel.Between(rel.Unique2, lo, lo+n/100-1)),
					ToHost: true, Project: []rel.Attr{rel.Unique1}}}
			},
		})
	})
	p.check("16 queries of 1,000 tuples each completed",
		wr.Queries == terminals*perTerminal && wr.Failed == 0 && wr.Tuples == wr.Queries*n/100)
	p.set("core.workload_us_per_query", usPer(d, wr.Queries))

	p.quelProbe(core.RestoreMachine(sim.New(), snap))
}

// quelProbe runs the parser and planner in front of the engine.
func (p *probes) quelProbe(m *core.Machine) {
	ses := quel.NewSession(m)
	stmts := []string{"range of t is aidx"}
	const retrieves = 20
	for i := 0; i < retrieves; i++ {
		stmts = append(stmts, fmt.Sprintf("retrieve (t.unique1) where t.unique1 >= %d and t.unique1 < %d", i*1000, i*1000+100))
	}
	tuples, failed := 0, 0
	d := p.callMedian(5, "quel.Session.Exec", "quel", len(stmts), func() {
		tuples = 0
		for _, s := range stmts {
			out, err := ses.Exec(s)
			if err != nil {
				failed++
			} else if out.Result != nil {
				tuples += out.Result.Tuples
			}
		}
	})
	p.check("20 retrieves of 100 tuples each", failed == 0 && tuples == retrieves*100)
	p.set("quel.exec_us_per_stmt", usPer(d, len(stmts)))
}

// --- wiss, nose, disk -------------------------------------------------------

// oneNode is the smallest machine a storage probe needs: one processor with
// a drive on a fresh simulation.
func oneNode() (*sim.Sim, *wiss.Store, *config.Params) {
	s := sim.New()
	prm := config.Default()
	net := nose.NewNetwork(s, prm.Net, prm.CPU)
	return s, wiss.NewStore(net.AddNode(true, prm.Disk), &prm), &prm
}

// inProc runs fn as a simulated process to completion.
func inProc(s *sim.Sim, fn func(pr *sim.Proc)) {
	s.Spawn("probe", fn)
	s.Run()
}

func (p *probes) wissProbes() {
	const n = probeTuples
	tuples := wisconsin.Generate(n, p.seed)
	s, st, prm := oneNode()

	var f *wiss.File
	d := p.callMedian(3, "wiss.Appender.Append", "wiss", n, func() {
		f = st.CreateFile("appended")
		inProc(s, func(pr *sim.Proc) {
			ap := f.NewAppender()
			for _, t := range tuples {
				ap.Append(pr, t)
			}
			ap.Close(pr)
		})
	})
	p.check("append kept every tuple", f.Len() == n)
	p.set("wiss.append_ns_per_tuple", nsPer(d, n))

	pages, seen := 0, 0
	d = p.callMedian(3, "wiss.Scanner.NextPage", "wiss", f.Pages(), func() {
		pages, seen = 0, 0
		inProc(s, func(pr *sim.Proc) {
			sc := f.NewScanner()
			for pg := sc.NextPage(pr); pg != nil; pg = sc.NextPage(pr) {
				pages++
				seen += len(pg.Tuples)
			}
		})
	})
	p.check("scan visited every page and tuple", pages == f.Pages() && seen == n)
	p.set("wiss.scan_ns_per_page", nsPer(d, pages))

	var bt *wiss.BTree
	d = p.call("wiss.NewBTree", "wiss", n, func() { bt = wiss.NewBTree(f, rel.Unique2, wiss.NonClustered) })
	p.check("index holds every key", bt.Entries() == n && bt.CheckInvariants() == nil)
	p.set("wiss.btree_build_ns_per_key", nsPer(d, n))

	found := 0
	d = p.call("wiss.BTree.SearchRIDs", "wiss", n, func() {
		inProc(s, func(pr *sim.Proc) {
			for k := int32(0); k < n; k++ {
				found += len(bt.SearchRIDs(pr, k))
			}
		})
	})
	p.check("search finds every inserted key once", found == n)
	p.set("wiss.btree_search_ns", nsPer(d, n))

	var sorted *wiss.File
	d = p.call("wiss.SortFile", "wiss", n, func() {
		inProc(s, func(pr *sim.Proc) {
			sorted = wiss.SortFile(pr, f, rel.Unique2, 256*prm.PageBytes,
				wiss.SortCosts{InstrPerTupleRun: 400, InstrPerTupleMerge: 200})
		})
	})
	ordered, last := sorted.Len() == n, int32(-1)
	for i := 0; ordered && i < sorted.Pages(); i++ {
		for _, t := range sorted.PageTuples(i) {
			ordered = ordered && t.Get(rel.Unique2) > last
			last = t.Get(rel.Unique2)
		}
	}
	p.check("sorted file holds 0..n-1 in order", ordered && last == n-1)
	p.set("wiss.sort_ns_per_tuple", nsPer(d, n))
}

// noseProbes sends 2 KB packets across the ring and within one node.
func (p *probes) noseProbes() {
	const packets = 100000
	send := func(metric string, remote bool) nose.Stats {
		s := sim.New()
		prm := config.Default()
		net := nose.NewNetwork(s, prm.Net, prm.CPU)
		from := net.AddNode(false, prm.Disk)
		to := from
		if remote {
			to = net.AddNode(false, prm.Disk)
		}
		port := to.NewPort("sink")
		received := 0
		s.Spawn("recv", func(pr *sim.Proc) {
			for received < packets {
				port.Recv(pr)
				received++
			}
		})
		s.Spawn("send", func(pr *sim.Proc) {
			c := from.Dial(port)
			for i := 0; i < packets; i++ {
				c.Send(pr, nose.Data, nil, 2048)
			}
		})
		d := p.call("nose.Conn.Send", "nose", packets, func() { s.Run() })
		p.check("every packet arrived", received == packets)
		p.set(metric, nsPer(d, packets))
		return net.Stats()
	}
	st := send("nose.send_ns_per_packet", true)
	p.check("remote sends crossed the ring", st.DataPackets == packets && st.LocalMsgs == 0)
	st = send("nose.send_local_ns_per_packet", false)
	p.check("same-node sends short-circuited", st.LocalMsgs == packets && st.DataPackets == 0)
}

func (p *probes) diskProbe() {
	const pages = 100000
	s := sim.New()
	prm := config.Default()
	dr := disk.New(s, "disk0", prm.Disk)
	d := p.call("disk.Drive.Read", "disk", pages, func() {
		inProc(s, func(pr *sim.Proc) {
			for i := 0; i < pages; i++ {
				dr.Read(pr, 1, i, prm.PageBytes)
			}
		})
	})
	st := dr.Stats()
	p.check("drive counted every read", st.Reads() == pages && st.BytesRead == int64(pages)*int64(prm.PageBytes))
	p.set("disk.io_ns_per_page", nsPer(d, pages))
}

// --- rel, wisconsin, trace, teradata -----------------------------------------

func (p *probes) relSort() {
	const n = probeTuples
	tuples := wisconsin.Generate(n, p.seed)
	d := p.call("rel.SortByAttr", "rel", n, func() { rel.SortByAttr(tuples, rel.Unique2) })
	p.check("sorted on unique2", sort.SliceIsSorted(tuples, func(i, j int) bool {
		return tuples[i].Get(rel.Unique2) < tuples[j].Get(rel.Unique2)
	}))
	p.set("rel.sort_ns_per_tuple", nsPer(d, n))
}

func (p *probes) wisconsinGenerate() {
	const n = generateSize
	var tuples []rel.Tuple
	// A seed no other probe uses, so the memo is cold.
	d := p.call("wisconsin.Generate", "wisconsin", n, func() { tuples = wisconsin.Generate(n, p.seed+1000) })
	var sum1, sum2 int64
	for _, t := range tuples {
		sum1 += int64(t.Get(rel.Unique1))
		sum2 += int64(t.Get(rel.Unique2))
	}
	want := int64(n) * (n - 1) / 2
	p.check("unique1 and unique2 are permutations of 0..n-1", len(tuples) == n && sum1 == want && sum2 == want)
	p.set("wisconsin.generate_ns_per_tuple", nsPer(d, n))
}

func (p *probes) traceProbes() {
	const n = probeEvents / 4
	var c *trace.Collector
	d := p.callMedian(3, "trace.Collector.Emit", "trace", n, func() {
		c = trace.NewCollector()
		for i := 0; i < n; i++ {
			c.Emit(trace.Event{At: int64(i), Kind: "release", Res: "cpu3", Node: 3, Start: int64(i), End: int64(i) + 5})
		}
	})
	p.check("collector kept every event", c.Len() == n)
	p.set("trace.emit_ns_per_event", nsPer(d, n))

	var err error
	d = p.callMedian(3, "trace.Collector.WriteJSONL", "trace", n, func() { err = c.WriteJSONL(io.Discard) })
	p.check("JSONL written", err == nil)
	p.set("trace.jsonl_ns_per_event", nsPer(d, n))
}

func (p *probes) teradataProbes() {
	const n = probeTuples
	prm := config.Default()
	m := teradata.NewMachine(sim.New(), &prm)
	a := m.Load("a", rel.Unique1, nil, wisconsin.Generate(n, p.seed))
	bp := m.Load("bprime", rel.Unique1, nil, wisconsin.Generate(probeBprime, p.seed+6))

	const queries = 5
	got := 0
	d := p.call("teradata.Machine.RunSelect", "teradata", queries, func() {
		for i := 0; i < queries; i++ {
			lo := int32(i * n / queries)
			got += m.RunSelect(a, rel.Between(rel.Unique2, lo, lo+n/100-1), teradata.FileScan, false).Tuples
		}
	})
	p.check("1% of 100k is 1,000 tuples", got == queries*n/100)
	p.set("teradata.select_us_per_query", usPer(d, queries))

	var res teradata.Result
	d = p.call("teradata.Machine.RunJoin", "teradata", n+probeBprime, func() {
		res = m.RunJoin(teradata.JoinQuery{
			R1: a, Pred1: rel.True(), Attr1: rel.Unique2,
			R2: bp, Pred2: rel.True(), Attr2: rel.Unique2,
		})
	})
	p.check("joinABprime returns |Bprime| tuples", res.Tuples == probeBprime)
	p.set("teradata.join_ns_per_tuple", nsPer(d, n+probeBprime))
}
