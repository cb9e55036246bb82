package core_test

// Acceptance tests for the bottleneck verdict and the tracing layer: a
// query's Counters verdict must reproduce the paper's bottleneck transitions,
// traced or not, and the event stream must be strictly deterministic
// (byte-identical JSONL across runs).

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
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
	if col {
		m.EnableTrace()
	}
	res := m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 999), Path: core.PathHeap},
	})
	return res, m.Trace
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
	if col {
		m.EnableTrace()
	}
	res := m.RunJoin(core.JoinQuery{
		Build: core.ScanSpec{Rel: b, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
		Probe: core.ScanSpec{Rel: a, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
		Mode: core.Remote,
	})
	return res, m.Trace
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

// TestTraceSpansWellFormed sanity-checks the derived timeline of a traced
// join: query span closed, every operator span closed with sane bounds, and
// the join's build phase ends no later than its probe phase at every site.
func TestTraceSpansWellFormed(t *testing.T) {
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, 2, 2)
	a := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(5000, 1))
	b := m.Load(core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(500, 7))
	col := m.EnableTrace()
	res := m.RunJoin(core.JoinQuery{
		Build: core.ScanSpec{Rel: b, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
		Probe: core.ScanSpec{Rel: a, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
		Mode: core.Remote,
	})

	q := col.Of(trace.KindQueryStart, trace.KindQueryDone)
	if len(q) != 2 || q[0].Kind != trace.KindQueryStart || q[0].Query != res.Query || q[1].Query != res.Query {
		t.Fatalf("query %q: events %+v, want one start and one done", res.Query, q)
	}
	from, to := q[0].At, q[1].At
	if to-from != int64(res.Elapsed) {
		t.Errorf("query span [%d,%d]; want duration %d", from, to, int64(res.Elapsed))
	}
	// Every operator and phase start is closed by a matching done, and both
	// lie inside the query span.
	open := map[string]int64{}
	for _, e := range col.Of(trace.KindOpStart, trace.KindOpDone, trace.KindPhaseStart, trace.KindPhaseDone) {
		if e.At < from || e.At > to {
			t.Errorf("%s of %s@%d at %d outside query span [%d,%d]", e.Kind, e.Op, e.Site, e.At, from, to)
		}
		k := fmt.Sprintf("%s@%d", e.Op, e.Site)
		if e.Kind == trace.KindPhaseStart || e.Kind == trace.KindPhaseDone {
			k += "/" + e.Class
		}
		if e.Kind == trace.KindOpStart || e.Kind == trace.KindPhaseStart {
			open[k]++
		} else {
			open[k]--
		}
	}
	if len(open) == 0 {
		t.Fatal("no operator spans")
	}
	for k, n := range open {
		if n != 0 {
			t.Errorf("span %s opened %d more times than closed", k, n)
		}
	}
	// Both join phases ran, and the probe phase's sites report the join's
	// output cardinality between them.
	var sawBuild, sawProbe bool
	probed := 0
	for _, e := range col.Of(trace.KindPhaseDone) {
		switch e.Op + "/" + e.Class {
		case "join1/build":
			sawBuild = true
		case "join1/probe":
			sawProbe = true
			probed += e.N
		}
	}
	if !sawBuild || !sawProbe {
		t.Errorf("missing join phases: build=%v probe=%v", sawBuild, sawProbe)
	}
	if probed != res.Tuples {
		t.Errorf("probe phase N=%d, want %d result tuples", probed, res.Tuples)
	}
}
