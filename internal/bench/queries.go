package bench

import (
	"fmt"

	"gamma/internal/core"
	"gamma/internal/rel"
)

// The paper's query vocabulary (§4-§7): about a dozen Wisconsin benchmark
// queries, spelled once here and named by every experiment that runs them.

// selection is one of the §5 selection queries: percent of a relation
// through one access path. indexed picks the physical version it runs on —
// the heap, or the copy clustered on unique1 with a dense index on unique2.
type selection struct {
	indexed bool
	attr    rel.Attr
	percent float64
	path    core.AccessPath
}

// heapSel is the non-indexed selection: a segment scan of the heap.
func heapSel(percent float64) selection {
	return selection{attr: rel.Unique2, percent: percent, path: core.PathHeap}
}

// clusteredSel reads only the qualifying range through the clustered index.
func clusteredSel(percent float64) selection {
	return selection{indexed: true, attr: rel.Unique1, percent: percent, path: core.PathClustered}
}

// nonClusteredSel probes the dense unique2 index and fetches every
// qualifying tuple's page.
func nonClusteredSel(percent float64) selection {
	return selection{indexed: true, attr: rel.Unique2, percent: percent, path: core.PathNonClustered}
}

// of is the selection on relation r of n tuples.
func (q selection) of(r *core.Relation, n int) core.SelectQuery {
	return core.SelectQuery{Scan: core.ScanSpec{Rel: r, Pred: pct(q.attr, n, q.percent), Path: q.path}}
}

// on is the selection on the standard benchmark database of n tuples.
func (q selection) on(g *gammaSetup, n int) core.SelectQuery {
	if q.indexed {
		return q.of(g.idx, n)
	}
	return q.of(g.heap, n)
}

// String names the selection as the figures' curves do.
func (q selection) String() string {
	switch q.path {
	case core.PathClustered:
		return fmt.Sprintf("%g%% clustered idx", q.percent)
	case core.PathNonClustered:
		return fmt.Sprintf("%g%% non-clustered idx", q.percent)
	}
	return fmt.Sprintf("%g%% sel", q.percent)
}

// ampleJoinMemory avoids hash-table overflow in the configuration sweeps, as
// the paper did by giving some processors extra memory (§1 footnote).
const ampleJoinMemory = 64 << 20

// scanAll reads every tuple of r.
func scanAll(r *core.Relation) core.ScanSpec {
	return core.ScanSpec{Rel: r, Pred: rel.True(), Path: core.PathHeap}
}

// joinABprime joins the n-tuple A with the n/10-tuple Bprime on attr: every
// tuple of A is read and shipped, one in ten finds a match (§6.1). mem is
// each join operator's hash-table memory, 0 for the machine's default.
func joinABprime(g *gammaSetup, attr rel.Attr, mode core.JoinMode, mem int) core.JoinQuery {
	return core.JoinQuery{
		Build: scanAll(g.rel("Bprime")), BuildAttr: attr,
		Probe: scanAll(g.heap), ProbeAttr: attr,
		Mode: mode, MemPerJoinBytes: mem,
	}
}

// joinAselB joins A with a 10% selection of the n-tuple B on attr, in Remote
// mode. The selection is on the join attribute, so Gamma's optimizer
// propagates it to A and the query runs as joinselAselB (§6.1).
func joinAselB(g *gammaSetup, n int, attr rel.Attr, mem int) core.JoinQuery {
	tenPct := pct(attr, n, 10)
	return core.JoinQuery{
		Build: core.ScanSpec{Rel: g.rel("B"), Pred: tenPct, Path: core.PathHeap}, BuildAttr: attr,
		Probe: core.ScanSpec{Rel: g.heap, Pred: tenPct, Path: core.PathHeap}, ProbeAttr: attr,
		Mode: core.Remote, MemPerJoinBytes: mem,
	}
}

// joinCselAselB restricts both A and B to 10% and joins the result with the
// n/10-tuple C (§6.1).
func joinCselAselB(g *gammaSetup, n int, attr rel.Attr) core.JoinQuery {
	q := joinAselB(g, n, attr, 0)
	c := scanAll(g.rel("C"))
	q.Build2, q.Build2Attr, q.Probe2Attr = &c, rel.Unique1, attr
	return q
}
