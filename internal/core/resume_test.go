package core

import (
	"testing"

	"gamma/internal/rel"
	"gamma/internal/wisconsin"
)

// TestOperatorsResumePerOperatorNotPerPage pins the data path's itineraries:
// an operator's process is resumed to start, to park between phases and to
// finish — not per page read, packet sent or packet received, nor per tuple
// spooled, spooled page moved or log page shipped. Each query runs
// on a 2+2 machine at two relation sizes; its resumes (Sim.Resumes deltas,
// every process of the query counted, scheduler and host included) must stay
// within a constant per operator, and must not grow with the pages and
// packets, which quadruple.
func TestOperatorsResumePerOperatorNotPerPage(t *testing.T) {
	type outcome struct{ resumes, ops, pages, packets int64 }
	// A query on relation A (hashed on unique1, clustered on unique1, dense
	// index on unique2) and B, the first tenth of A's tuples.
	cases := []struct {
		name string
		ops  int // operator processes: selects, joins and stores
		run  func(m *Machine, a, b *Relation)
	}{
		{"heap select", 4, func(m *Machine, a, _ *Relation) {
			m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, int32(a.Count()/10)), Path: PathHeap}})
		}},
		{"clustered select", 4, func(m *Machine, a, _ *Relation) {
			m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique1, 0, int32(a.Count()/2)), Path: PathClustered}})
		}},
		{"concurrent heap selects, MPL 4", 16, func(m *Machine, a, _ *Relation) {
			var qs []ConcurrentQuery
			for i := range 4 {
				q := SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, int32(i), int32(a.Count()/10)), Path: PathHeap}}
				qs = append(qs, ConcurrentQuery{Select: &q})
			}
			m.RunConcurrent(qs)
		}},
		{"remote join and its stores", 8, func(m *Machine, a, b *Relation) {
			res := m.RunJoin(JoinQuery{
				Build: ScanSpec{Rel: b, Pred: rel.True(), Path: PathHeap}, BuildAttr: rel.Unique1,
				Probe: ScanSpec{Rel: a, Pred: rel.True(), Path: PathHeap}, ProbeAttr: rel.Unique1,
				Mode: Remote,
			})
			if res.Overflows != 0 || res.Tuples != b.Count() {
				t.Fatalf("join: %d tuples, %d overflows; want %d, none", res.Tuples, res.Overflows, b.Count())
			}
		}},
		// Joins whose build relation is four times join memory: they spool
		// both relations, and each of their two overflow partitions adds a
		// build and a probe spool scan per join site.
		{"overflowing local join", 16, func(m *Machine, a, b *Relation) {
			overflowingJoin(t, m, a, b, Local, SimpleHash)
		}},
		{"hybrid join under pressure", 16, func(m *Machine, a, b *Relation) {
			overflowingJoin(t, m, a, b, Remote, HybridHash)
		}},
		{"stored select, recovery server", 4, func(m *Machine, a, _ *Relation) {
			m.EnableRecovery()
			m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, int32(a.Count()/10)), Path: PathHeap}})
		}},
	}
	for _, c := range cases {
		var got [2]outcome
		for i, n := range []int{2000, 8000} {
			m, a := newTestMachine(t, 2, 2, n)
			b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(n/10, 1))
			before, c0 := m.Sim.Resumes(), m.Counters()
			c.run(m, a, b)
			d := m.Counters().Sub(c0)
			got[i] = outcome{int64(m.Sim.Resumes() - before), int64(c.ops), d.PoolHits + d.PoolMisses, d.Net.DataPackets + d.Net.LocalMsgs}
		}
		t.Logf("%s: %+v", c.name, got)
		for _, o := range got {
			if perOp := o.resumes / o.ops; perOp > 12 {
				t.Errorf("%s: %d resumes for %d operators, %d pages read, %d packets: %d per operator, want at most 12",
					c.name, o.resumes, o.ops, o.pages, o.packets, perOp)
			}
		}
		if grew := got[1].resumes - got[0].resumes; grew > got[0].ops {
			t.Errorf("%s: resumes grew by %d (%d → %d) as pages went %d → %d and packets %d → %d",
				c.name, grew, got[0].resumes, got[1].resumes, got[0].pages, got[1].pages, got[0].packets, got[1].packets)
		}
	}
}

// overflowingJoin joins b and a on unique2 with a quarter of b's bytes of
// join memory per site, and checks that the answer is b's cardinality.
func overflowingJoin(t *testing.T, m *Machine, a, b *Relation, mode JoinMode, algo JoinAlgorithm) {
	res := m.RunJoin(JoinQuery{
		Build: ScanSpec{Rel: b, Pred: rel.True(), Path: PathHeap}, BuildAttr: rel.Unique2,
		Probe: ScanSpec{Rel: a, Pred: rel.True(), Path: PathHeap}, ProbeAttr: rel.Unique2,
		Mode: mode, Algorithm: algo, MemPerJoinBytes: b.Count() * m.Prm.TupleBytes / 4,
	})
	if res.Tuples != b.Count() {
		t.Fatalf("%v %v join: %d tuples, want %d", mode, algo, res.Tuples, b.Count())
	}
}
