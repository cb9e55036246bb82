package core

import (
	"reflect"
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// mixedBatch is a selection-heavy concurrent mix over relation a (three heap
// selections with different, overlapping predicates) plus a join probing a —
// the SharedDB scenario: every heap pass over a's fragments can share one
// cursor.
func mixedBatch(a, b *Relation) []ConcurrentQuery {
	s1 := SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 99), Path: PathHeap}}
	s2 := SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 100, 299), Path: PathHeap}}
	s3 := SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 50, 149), Path: PathHeap}}
	j := JoinQuery{
		Build: ScanSpec{Rel: b, Pred: rel.True(), Path: PathHeap}, BuildAttr: rel.Unique2,
		Probe: ScanSpec{Rel: a, Pred: rel.True(), Path: PathHeap}, ProbeAttr: rel.Unique2,
		Mode: Remote,
	}
	return []ConcurrentQuery{{Select: &s1}, {Select: &s2}, {Select: &s3}, {Join: &j}}
}

// TestSharedScanResultsMatchPrivate: turning sharing on must change I/O
// timing only — every query's result set is identical to a private-scan run.
func TestSharedScanResultsMatchPrivate(t *testing.T) {
	run := func(shared bool) (*Machine, []Result) {
		m, a := newTestMachine(t, 4, 4, 2000)
		b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1}, genTuples(200, 7))
		if shared {
			m.EnableSharedScans()
		}
		return m, m.RunConcurrent(mixedBatch(a, b))
	}
	mPriv, priv := run(false)
	mShared, shared := run(true)
	for i := range priv {
		if priv[i].Tuples != shared[i].Tuples {
			t.Errorf("query %d: private %d tuples, shared %d", i, priv[i].Tuples, shared[i].Tuples)
		}
		rp, okP := mPriv.Relation(priv[i].ResultName)
		rs, okS := mShared.Relation(shared[i].ResultName)
		if okP != okS {
			t.Fatalf("query %d: result relation presence differs", i)
		}
		if !okP {
			continue
		}
		tp, ts := rp.AllTuples(), rs.AllTuples()
		rel.SortByAttr(tp, rel.Unique1)
		rel.SortByAttr(ts, rel.Unique1)
		if !reflect.DeepEqual(tp, ts) {
			t.Errorf("query %d: result tuples differ (private %d, shared %d)", i, len(tp), len(ts))
		}
	}
	if c := mShared.Counters(); c.SharedDelivered <= c.SharedScanned {
		t.Errorf("shared run saved no page reads: scanned=%d delivered=%d", c.SharedScanned, c.SharedDelivered)
	}
	if c := mPriv.Counters(); c.SharedScanned != 0 || c.SharedDelivered != 0 {
		t.Errorf("private run has shared-scan counters: %d/%d", c.SharedScanned, c.SharedDelivered)
	}
}

// TestSharedScanTraceAttribution: attach/detach events land in the trace,
// and the pages the detaches report saved are the ones Counters counts.
func TestSharedScanTraceAttribution(t *testing.T) {
	m, a := newTestMachine(t, 4, 0, 2000)
	col := m.EnableTrace()
	m.EnableSharedScans()
	before := m.Counters()
	s1 := SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 99), Path: PathHeap}}
	s2 := SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 100, 299), Path: PathHeap}}
	m.RunConcurrent([]ConcurrentQuery{{Select: &s1}, {Select: &s2}})

	evs := col.Of(trace.KindSharedScan)
	attaches, detaches, saved := 0, 0, 0
	for _, e := range evs {
		switch e.Class {
		case "attach":
			attaches++
		case "detach":
			detaches++
			saved += e.N
		default:
			t.Errorf("unexpected shared-scan class %q", e.Class)
		}
		if e.Kind != trace.KindSharedScan {
			t.Errorf("event kind = %q", e.Kind)
		}
	}
	// Two queries × four fragments: eight riders, each attaching once.
	if attaches != 8 || detaches != 8 {
		t.Fatalf("attaches=%d detaches=%d, want 8/8", attaches, detaches)
	}
	if saved <= 0 {
		t.Errorf("detaches saved %d pages, want > 0", saved)
	}
	if c := m.Counters().Sub(before); c.SharedDelivered-c.SharedScanned != int64(saved) {
		t.Errorf("counters saved %d pages, trace detaches %d", c.SharedDelivered-c.SharedScanned, saved)
	}
}

// TestSharedScanWrapAround: a rider that attaches mid-scan (serialized host
// startup guarantees staggered operator arrival) still sees every page
// exactly once — its result matches a solo run of the same query.
func TestSharedScanWrapAround(t *testing.T) {
	solo := func() int {
		m, a := newTestMachine(t, 2, 0, 3000)
		return m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 500, 999), Path: PathHeap}}).Tuples
	}()

	m, a := newTestMachine(t, 2, 0, 3000)
	m.EnableSharedScans()
	col := m.EnableTrace()
	q1 := SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 1499), Path: PathHeap}}
	q2 := SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 500, 999), Path: PathHeap}}
	rs := m.RunConcurrent([]ConcurrentQuery{{Select: &q1}, {Select: &q2}})
	if rs[1].Tuples != solo {
		t.Errorf("mid-scan attacher returned %d tuples, solo run %d", rs[1].Tuples, solo)
	}
	if rs[0].Tuples != 1500 {
		t.Errorf("leader returned %d tuples, want 1500", rs[0].Tuples)
	}
	midScan := false
	for _, e := range col.Of(trace.KindSharedScan) {
		if e.Class == "attach" && e.Page != 0 {
			midScan = true
		}
	}
	if !midScan {
		t.Error("no rider attached mid-scan; wrap-around path not exercised")
	}
}

// TestSharedScanOffByDefault: a fresh machine never shares.
func TestSharedScanOffByDefault(t *testing.T) {
	s := sim.New()
	prm := config.Default()
	m := NewMachine(s, &prm, 2, 0)
	if m.scans != nil {
		t.Fatal("sharing enabled without EnableSharedScans")
	}
	m.EnableSharedScans()
	if m.scans == nil {
		t.Fatal("EnableSharedScans did not stick")
	}
}
