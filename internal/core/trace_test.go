package core_test

// Acceptance tests for the structured tracing layer: trace.Diagnose must
// reproduce the paper's bottleneck transitions, and the event stream must be
// strictly deterministic (byte-identical JSONL across runs).

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

// tracedSelect runs a 1% non-indexed selection on the standard 8+8 machine
// at the given page size and returns its result.
func tracedSelect(t *testing.T, pageBytes int) core.Result {
	t.Helper()
	prm := config.Default()
	prm.PageBytes = pageBytes
	m := core.NewMachine(sim.New(), &prm, 8, 8)
	r := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(100000, 1))
	m.EnableTrace()
	res := m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 999), Path: core.PathHeap},
	})
	if res.Diag == nil {
		t.Fatal("traced query has no Diag verdict")
	}
	return res
}

// TestSelectionBottleneckTransition asserts the Figures 5-6 claim: a
// non-indexed (heap-scan) selection is disk-bound at 4 KB pages, and becomes
// CPU-bound as the page size grows — larger pages amortize positioning cost
// over more tuples until the 0.6-MIPS VAX predicate evaluation dominates.
func TestSelectionBottleneckTransition(t *testing.T) {
	small := tracedSelect(t, 4096)
	if small.Diag.Binding != "disk" {
		t.Errorf("4 KB pages: %s; want disk-bound (Figure 5)", small.Diag)
	}
	large := tracedSelect(t, 32768)
	if large.Diag.Binding != "cpu" {
		t.Errorf("32 KB pages: %s; want cpu-bound (Figure 6)", large.Diag)
	}
	if large.Elapsed >= small.Elapsed {
		t.Errorf("32 KB selection (%v) not faster than 4 KB (%v)", large.Elapsed, small.Elapsed)
	}
}

// tracedRemoteJoin runs joinABprime on a 1-disk + 1-diskless machine in
// Remote mode: every build and probe tuple crosses the network.
func tracedRemoteJoin(t *testing.T, mips float64, pageBytes int) core.Result {
	t.Helper()
	prm := config.Default()
	prm.CPU.MIPS = mips
	prm.PageBytes = pageBytes
	m := core.NewMachine(sim.New(), &prm, 1, 1)
	a := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(20000, 1))
	b := m.Load(core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(2000, 7))
	m.EnableTrace()
	res := m.RunJoin(core.JoinQuery{
		Build: core.ScanSpec{Rel: b, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
		Probe: core.ScanSpec{Rel: a, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
		Mode: core.Remote,
	})
	if res.Diag == nil {
		t.Fatal("traced query has no Diag verdict")
	}
	return res
}

// TestRemoteJoinUnibusBound asserts the Figure 3 / §6.2.3 discussion: in the
// 1-processor Remote join the 4 Mbit/s Unibus NIC is the network chokepoint
// (the 80 Mbit/s ring never is), and once processors outgrow the 0.6-MIPS
// VAX the NIC becomes the binding resource outright.
func TestRemoteJoinUnibusBound(t *testing.T) {
	// At VAX speed the join CPU masks the network, but the NIC must
	// already dominate the ring by an order of magnitude: all data
	// funnels through the per-node Unibus, not the shared ring.
	vax := tracedRemoteJoin(t, 0.6, 4096)
	if vax.Diag.Binding == "ring" {
		t.Fatalf("VAX join: %s; the ring must never bind (§5.2.1)", vax.Diag)
	}
	var nicU, ringU float64
	for _, cu := range vax.Diag.Classes {
		switch cu.Class {
		case "nic":
			nicU = cu.Util
		case "ring":
			ringU = cu.Util
		}
	}
	if nicU < 10*ringU {
		t.Errorf("VAX join: nic %.1f%% vs ring %.1f%%; want Unibus >= 10x ring", 100*nicU, 100*ringU)
	}

	// §6.2.3's thought experiment: with faster processors (8x the VAX;
	// pages large enough that disk positioning no longer dominates) the
	// network interface emerges as the bottleneck.
	fast := tracedRemoteJoin(t, 4.8, 32768)
	if fast.Diag.Binding != "nic" {
		t.Errorf("fast-CPU remote join: %s; want nic-bound (§6.2.3)", fast.Diag)
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

	q, ok := col.Query(res.Query)
	if !ok {
		t.Fatalf("query %q has no span", res.Query)
	}
	if q.End < 0 || q.Dur() != int64(res.Elapsed) {
		t.Errorf("query span %+v; want closed with duration %d", q, int64(res.Elapsed))
	}
	// Every operator and phase start is closed by a matching done, and both
	// lie inside the query span.
	open := map[string]int64{}
	for _, e := range col.Of(trace.KindOpStart, trace.KindOpDone, trace.KindPhaseStart, trace.KindPhaseDone) {
		if e.At < q.Start || e.At > q.End {
			t.Errorf("%s of %s@%d at %d outside query span [%d,%d]", e.Kind, e.Op, e.Site, e.At, q.Start, q.End)
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
	var sawBuild, sawProbe bool
	for _, ph := range col.MergedPhases() {
		switch ph.ID {
		case "join1/build":
			sawBuild = true
		case "join1/probe":
			sawProbe = true
		}
	}
	if !sawBuild || !sawProbe {
		t.Errorf("missing join phases: build=%v probe=%v", sawBuild, sawProbe)
	}
	// The merged probe phase reports the join's output cardinality.
	for _, ph := range col.MergedPhases() {
		if ph.ID == "join1/probe" && ph.N != res.Tuples {
			t.Errorf("probe phase N=%d, want %d result tuples", ph.N, res.Tuples)
		}
	}
}
