package core_test

// Acceptance tests for the bottleneck verdict and the tracing layer: a
// query's Counters verdict must reproduce the paper's bottleneck transitions,
// traced or not, and the event stream must be strictly deterministic
// (byte-identical JSONL across runs).

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/disk"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// selectAt runs a 1% non-indexed selection on the standard 8+8 machine at
// the given page size, traced when col is true, and returns its result and
// the machine's collector (nil untraced).
func selectAt(pageBytes int, col bool) (core.Result, *trace.Collector) {
	prm := config.Default()
	prm.PageBytes = pageBytes
	m := core.NewMachine(sim.New(), &prm, 8, 8)
	r := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(100000, 1))
	var tr *trace.Collector
	if col {
		tr = m.EnableTrace()
	}
	res := m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 999), Path: core.PathHeap},
	})
	return res, tr
}

// TestSelectionBottleneckTransition asserts the Figures 5-6 claim: a
// non-indexed (heap-scan) selection is disk-bound at 4 KB pages, and becomes
// CPU-bound as the page size grows — larger pages amortize positioning cost
// over more tuples until the 0.6-MIPS VAX predicate evaluation dominates.
func TestSelectionBottleneckTransition(t *testing.T) {
	small, _ := selectAt(4096, false)
	if v := small.Counters.Verdict(); v.Binding != "disk" {
		t.Errorf("4 KB pages: %s; want disk-bound (Figure 5)", v)
	}
	large, _ := selectAt(32768, false)
	if v := large.Counters.Verdict(); v.Binding != "cpu" {
		t.Errorf("32 KB pages: %s; want cpu-bound (Figure 6)", v)
	}
	if large.Elapsed >= small.Elapsed {
		t.Errorf("32 KB selection (%v) not faster than 4 KB (%v)", large.Elapsed, small.Elapsed)
	}
}

// remoteJoin runs joinABprime on a 1-disk + 1-diskless machine in Remote
// mode, where every build and probe tuple crosses the network, traced when
// col is true; it returns the result and the collector (nil untraced).
func remoteJoin(mips float64, pageBytes int, col bool) (core.Result, *trace.Collector) {
	prm := config.Default()
	prm.CPU.MIPS = mips
	prm.PageBytes = pageBytes
	m := core.NewMachine(sim.New(), &prm, 1, 1)
	a := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(20000, 1))
	b := m.Load(core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(2000, 7))
	var tr *trace.Collector
	if col {
		tr = m.EnableTrace()
	}
	res := m.RunJoin(core.JoinQuery{
		Build: core.ScanSpec{Rel: b, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
		Probe: core.ScanSpec{Rel: a, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
		Mode: core.Remote,
	})
	return res, tr
}

// TestRemoteJoinUnibusBound asserts the Figure 3 / §6.2.3 discussion: in the
// 1-processor Remote join the 4 Mbit/s Unibus NIC is the network chokepoint
// (the 80 Mbit/s ring never is), and once processors outgrow the 0.6-MIPS
// VAX the NIC becomes the binding resource outright.
func TestRemoteJoinUnibusBound(t *testing.T) {
	// At VAX speed the join CPU masks the network, but the NIC must
	// already dominate the ring by an order of magnitude: all data
	// funnels through the per-node Unibus, not the shared ring.
	vax, _ := remoteJoin(0.6, 4096, false)
	v := vax.Counters.Verdict()
	if v.Binding == "ring" {
		t.Fatalf("VAX join: %s; the ring must never bind (§5.2.1)", v)
	}
	var nicU, ringU float64
	for _, cu := range v.Classes {
		switch cu.Class {
		case "nic":
			nicU = cu.Util
		case "ring":
			ringU = cu.Util
		}
	}
	if ringU == 0 || nicU < 10*ringU {
		t.Errorf("VAX join: nic %.1f%% vs ring %.1f%%; want a busy ring and the Unibus >= 10x it", 100*nicU, 100*ringU)
	}

	// §6.2.3's thought experiment: with faster processors (8x the VAX;
	// pages large enough that disk positioning no longer dominates) the
	// network interface emerges as the bottleneck.
	fast, _ := remoteJoin(4.8, 32768, false)
	if v := fast.Counters.Verdict(); v.Binding != "nic" {
		t.Errorf("fast-CPU remote join: %s; want nic-bound (§6.2.3)", v)
	}
}

// TestVerdictTracedOrNot: tracing changes no verdict. A selection and a join
// read the same Counters and the same verdict on a traced and an untraced
// machine, and the control-message time each node's counters hold is what
// its ctl-msg events charge.
func TestVerdictTracedOrNot(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(col bool) (core.Result, *trace.Collector)
	}{
		{"select", func(col bool) (core.Result, *trace.Collector) { return selectAt(4096, col) }},
		{"join", func(col bool) (core.Result, *trace.Collector) { return remoteJoin(0.6, 4096, col) }},
	} {
		plain, _ := tc.run(false)
		traced, col := tc.run(true)
		if !reflect.DeepEqual(plain.Counters, traced.Counters) {
			t.Errorf("%s: counters differ:\nuntraced %+v\n  traced %+v", tc.name, plain.Counters, traced.Counters)
		}
		if pv, tv := plain.Counters.Verdict(), traced.Counters.Verdict(); !reflect.DeepEqual(pv, tv) || pv.Binding == "" {
			t.Errorf("%s: verdict untraced %s, traced %s", tc.name, pv, tv)
		}
		ctl := make([]sim.Dur, len(traced.Counters.Nodes))
		for _, e := range col.Of(trace.KindCtlMsg) {
			ctl[e.From] += sim.Dur(e.Dur)
		}
		for id, n := range traced.Counters.Nodes {
			if n.Ctl != ctl[id] {
				t.Errorf("%s: node %d counts %v of control messages, its ctl-msg events %v", tc.name, id, n.Ctl, ctl[id])
			}
		}
	}
}

// runTracedWorkload executes a fixed seeded select + join workload on a
// fresh machine and returns the JSONL trace bytes and both results.
func runTracedWorkload() ([]byte, []core.Result) {
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, 4, 4)
	u1 := rel.Unique1
	a := m.Load(core.LoadSpec{
		Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(10000, 1))
	b := m.Load(core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(1000, 7))
	col := m.EnableTrace()
	r1 := m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique1, 0, 999), Path: core.PathClustered},
	})
	r2 := m.RunJoin(core.JoinQuery{
		Build: core.ScanSpec{Rel: b, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
		Probe: core.ScanSpec{Rel: a, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
		Mode: core.Remote,
	})
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes(), []core.Result{r1, r2}
}

// TestTraceDeterminism asserts the guarantee the resume/calibration story
// depends on: the same seeded workload produces a byte-identical JSONL trace
// and identical Result fields on every run. CI additionally runs this under
// -race, which would flag any unsynchronized access breaking the kernel's
// hand-off discipline.
func TestTraceDeterminism(t *testing.T) {
	trace1, res1 := runTracedWorkload()
	trace2, res2 := runTracedWorkload()
	if len(trace1) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(trace1, trace2) {
		for i := range trace1 {
			if i >= len(trace2) || trace1[i] != trace2[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("JSONL traces diverge at byte %d (of %d vs %d):\n run1: …%s\n run2: …%s",
					i, len(trace1), len(trace2), trace1[lo:min(i+80, len(trace1))], trace2[lo:min(i+80, len(trace2))])
			}
		}
		t.Fatalf("JSONL traces differ in length: %d vs %d bytes", len(trace1), len(trace2))
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("results differ:\n run1: %+v\n run2: %+v", res1, res2)
	}
}

// tracedQuery is one query of tracedWorkload: its result, the events its run
// emitted, and how many operators of each kind (op-start's Class) it ran.
type tracedQuery struct {
	name string
	res  core.Result
	col  *trace.Collector
	ops  map[string]int
}

// tracedWorkload runs, on a traced 2+2 machine, a selection, a Remote join
// whose build side overflows join memory, a scalar and a grouped aggregate,
// and each of the five update kinds, every query into a collector of its
// own.
func tracedWorkload(t *testing.T) []tracedQuery {
	t.Helper()
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, 2, 2)
	u1, ten := rel.Unique1, rel.Ten
	a := m.Load(core.LoadSpec{
		Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(5000, 1))
	b := m.Load(core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(500, 7))
	heap := func(r *core.Relation) core.ScanSpec {
		return core.ScanSpec{Rel: r, Pred: rel.True(), Path: core.PathHeap}
	}
	var qs []tracedQuery
	run := func(name string, ops map[string]int, query func() core.Result) {
		col := m.EnableTrace()
		res := query()
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		qs = append(qs, tracedQuery{name, res, col, ops})
	}
	run("select", map[string]int{"heap": 2, "store": 2}, func() core.Result {
		return m.RunSelect(core.SelectQuery{Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 499), Path: core.PathHeap}})
	})
	run("join", map[string]int{"heap": 4, "join": 2, "store": 2}, func() core.Result {
		return m.RunJoin(core.JoinQuery{
			Build: heap(b), BuildAttr: rel.Unique2, Probe: heap(a), ProbeAttr: rel.Unique2,
			Mode: core.Remote, MemPerJoinBytes: 20000,
		})
	})
	join := qs[len(qs)-1]
	rounds := map[string]bool{}
	for _, e := range join.col.Of(trace.KindPhaseStart) {
		if strings.HasPrefix(e.Class, "ovfbuild-") {
			rounds[e.Class] = true
		}
	}
	if len(rounds) == 0 {
		t.Fatal("join: no overflow round")
	}
	// Each overflow round adds a build and a probe spool scan per join site.
	join.ops["spool-scan"] = 2 * 2 * len(rounds)
	run("scalar-agg", map[string]int{"agg-scan": 2, "agg-combine": 1}, func() core.Result {
		return m.RunAgg(core.AggQuery{Scan: heap(a), Fn: core.Sum, Attr: rel.Unique1, Mode: core.Remote}).Result
	})
	run("grouped-agg", map[string]int{"heap": 2, "agg": 2}, func() core.Result {
		return m.RunAgg(core.AggQuery{Scan: heap(a), Fn: core.Min, Attr: rel.Unique1, GroupBy: &ten, Mode: core.Remote}).Result
	})
	var tup rel.Tuple
	tup.Set(rel.Unique1, 100003)
	tup.Set(rel.Unique2, 100003)
	for _, u := range []struct {
		ops map[string]int
		q   core.UpdateQuery
	}{
		{map[string]int{"append": 1}, core.UpdateQuery{Kind: core.AppendTuple, Tuple: tup}},
		{map[string]int{"delete": 1}, core.UpdateQuery{Kind: core.DeleteByKey, Key: 55}},
		{map[string]int{"modkey-out": 1, "modkey-in": 1}, core.UpdateQuery{Kind: core.ModifyKeyAttr, Key: 56, Attr: rel.Unique1, NewValue: 100777}},
		{map[string]int{"modify": 1}, core.UpdateQuery{Kind: core.ModifyNonIndexed, Key: 57, Attr: rel.Ten, NewValue: 3}},
		{map[string]int{"modidx": 2}, core.UpdateQuery{Kind: core.ModifyIndexed, Key: 58, Attr: rel.Unique2, NewValue: 100999}},
	} {
		u.q.Rel = a
		run(u.q.Kind.String(), u.ops, func() core.Result { return m.RunUpdate(u.q) })
	}
	return qs
}

// TestTraceAgreesWithCounters: the event stream and Result.Counters describe
// each query of tracedWorkload alike. Every resource's service records sum
// to the busy time its node's counters hold; every record is served no
// earlier than requested, and one resource's records never overlap (it is a
// FIFO server); each drive's disk-op classes and bytes are its access mix;
// and the packet and local-msg records count the network's data packets and
// local messages.
func TestTraceAgreesWithCounters(t *testing.T) {
	for _, q := range tracedWorkload(t) {
		busy := map[string]sim.Dur{}
		end := map[string]int64{}
		for _, e := range q.col.Of(trace.KindService) {
			if e.At > e.Start || e.Start > e.End {
				t.Errorf("%s: %s served [%d,%d] on a request at %d", q.name, e.Res, e.Start, e.End, e.At)
			}
			if e.Start < end[e.Res] {
				t.Errorf("%s: %s serves [%d,%d] before its previous service ends at %d", q.name, e.Res, e.Start, e.End, end[e.Res])
			}
			end[e.Res] = e.End
			busy[e.Res] += sim.Dur(e.End - e.Start)
		}
		access := map[string]*disk.Stats{}
		for _, e := range q.col.Of(trace.KindDiskOp) {
			st := access[e.Res]
			if st == nil {
				st = &disk.Stats{}
				access[e.Res] = st
			}
			switch e.Class {
			case "seq-read":
				st.SeqReads++
			case "rand-read":
				st.RandReads++
			case "seq-write":
				st.SeqWrites++
			case "rand-write":
				st.RandWrites++
			default:
				t.Fatalf("%s: disk-op class %q", q.name, e.Class)
			}
			if strings.HasSuffix(e.Class, "read") {
				st.BytesRead += int64(e.Bytes)
			} else {
				st.BytesWritten += int64(e.Bytes)
			}
		}
		c := q.res.Counters
		for id, n := range c.Nodes {
			for res, want := range map[string]sim.Dur{
				fmt.Sprintf("cpu%d", id): n.CPU, fmt.Sprintf("nic%d", id): n.NIC, fmt.Sprintf("disk%d", id): n.Drive,
			} {
				if busy[res] != want {
					t.Errorf("%s: %s's service records sum to %v, its counters hold %v", q.name, res, busy[res], want)
				}
				delete(busy, res)
			}
			drive := fmt.Sprintf("disk%d", id)
			if got := access[drive]; got != nil && *got != n.Access || got == nil && n.Access != (disk.Stats{}) {
				t.Errorf("%s: %s's disk-op records %+v, its access mix %+v", q.name, drive, got, n.Access)
			}
		}
		for res := range busy {
			t.Errorf("%s: service records of %s, a resource no node counts", q.name, res)
		}
		if got := int64(len(q.col.Of(trace.KindPacket))); got != c.Net.DataPackets {
			t.Errorf("%s: %d packet records, %d data packets counted", q.name, got, c.Net.DataPackets)
		}
		if got := int64(len(q.col.Of(trace.KindLocalMsg))); got != c.Net.LocalMsgs {
			t.Errorf("%s: %d local-msg records, %d local messages counted", q.name, got, c.Net.LocalMsgs)
		}
	}
}

// TestTraceSpansWellFormed sanity-checks the spans of each query of
// tracedWorkload: the query span is closed and lasts the query's elapsed
// time; every operator that ran is exactly one closed span inside it; and the
// join's phases are closed spans whose probe phases report the join's output
// cardinality between them.
func TestTraceSpansWellFormed(t *testing.T) {
	for _, tq := range tracedWorkload(t) {
		name, res, col := tq.name, tq.res, tq.col
		q := col.Of(trace.KindQueryStart, trace.KindQueryDone)
		if len(q) != 2 || q[0].Kind != trace.KindQueryStart || q[0].Query != res.Query || q[1].Query != res.Query {
			t.Fatalf("%s: query %q: events %+v, want one start and one done", name, res.Query, q)
		}
		from, to := q[0].At, q[1].At
		if to-from != int64(res.Elapsed) {
			t.Errorf("%s: query span [%d,%d]; want duration %d", name, from, to, int64(res.Elapsed))
		}
		// Every operator and phase start is closed by one matching done,
		// and both lie inside the query span.
		open := map[string]int{}
		ran := map[string]int{}
		for _, e := range col.Of(trace.KindOpStart, trace.KindOpDone, trace.KindPhaseStart, trace.KindPhaseDone) {
			if e.At < from || e.At > to {
				t.Errorf("%s: %s of %s@%d at %d outside query span [%d,%d]", name, e.Kind, e.Op, e.Site, e.At, from, to)
			}
			k := fmt.Sprintf("%s@%d/%d", e.Op, e.Node, e.Site)
			if e.Kind == trace.KindPhaseStart || e.Kind == trace.KindPhaseDone {
				k += "/" + e.Class
			}
			switch e.Kind {
			case trace.KindOpStart:
				ran[e.Class]++
				open[k]++
			case trace.KindPhaseStart:
				open[k]++
			default:
				if open[k]--; open[k] < 0 {
					t.Errorf("%s: %s of %s with no open span", name, e.Kind, k)
				}
			}
		}
		for k, n := range open {
			if n != 0 {
				t.Errorf("%s: span %s opened %d more times than closed", name, k, n)
			}
		}
		if !reflect.DeepEqual(ran, tq.ops) {
			t.Errorf("%s: operator spans by kind %v, want %v", name, ran, tq.ops)
		}
		if name != "join" {
			continue
		}
		// Both join phases ran, and the probe phases' sites report the
		// join's output cardinality between them.
		var sawBuild, sawProbe bool
		probed := 0
		for _, e := range col.Of(trace.KindPhaseDone) {
			switch {
			case e.Op == "join1" && e.Class == "build":
				sawBuild = true
			case e.Op == "join1" && (e.Class == "probe" || strings.HasPrefix(e.Class, "ovfprobe-")):
				sawProbe = sawProbe || e.Class == "probe"
				probed += e.N
			}
		}
		if !sawBuild || !sawProbe {
			t.Errorf("missing join phases: build=%v probe=%v", sawBuild, sawProbe)
		}
		if probed != res.Tuples {
			t.Errorf("probe phases N=%d, want %d result tuples", probed, res.Tuples)
		}
	}
}
