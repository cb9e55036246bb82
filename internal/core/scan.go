package core

import (
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wiss"
)

// AccessPath selects how a selection operator reads its fragment.
type AccessPath int

const (
	// PathAuto lets the optimizer choose (see choosePath).
	PathAuto AccessPath = iota
	// PathHeap is a sequential file (segment) scan.
	PathHeap
	// PathClustered scans only the key range through a clustered B-tree.
	PathClustered
	// PathNonClustered probes a dense secondary index and fetches each
	// qualifying tuple's data page individually.
	PathNonClustered
)

func (a AccessPath) String() string {
	switch a {
	case PathHeap:
		return "heap"
	case PathClustered:
		return "clustered-index"
	case PathNonClustered:
		return "non-clustered-index"
	default:
		return "auto"
	}
}

// ScanSpec describes one side of a query: which relation, what predicate,
// and which access path.
type ScanSpec struct {
	Rel  *Relation
	Pred rel.Pred
	Path AccessPath
}

// selectOutput tells a producer operator where its output stream goes.
type selectOutput struct {
	stream     streamID
	ports      []*nose.Port
	route      RouteFn
	filters    []*BitFilter
	filterAttr rel.Attr
	// width is the logical tuple width of the stream (0 = full tuples);
	// project lists the attributes kept when the stream is projected.
	width   int
	project []rel.Attr
}

// doneMsg is the control message an operator sends its scheduler on
// completion (§2: the third of the three control messages).
type doneMsg struct {
	op       string
	produced int
}

// spawnSelect starts a selection operator process on the fragment's node.
// routeMaker is called inside the operator to build its split table (so
// round-robin counters are per-operator, as in Gamma).
func spawnSelect(m *Machine, from *sim.Proc, opID string, site int, frag *Fragment, pred rel.Pred, path AccessPath, mkOut func() selectOutput, sched *nose.Port) {
	m.spawnOp(from, opSpec{op: opID, class: path.String(), site: site, node: frag.Node, sched: sched}, func(p *sim.Proc) (int, any) {
		out := mkOut()
		split := newSplitTable(frag.Node, m.Prm, out.stream, out.ports, out.route)
		if out.filters != nil {
			split.setFilters(out.filterAttr, out.filters)
		}
		split.setWidth(out.width)
		split.project = out.project
		n := 0
		switch path {
		case PathHeap:
			n = heapSelect(p, m, frag, pred, split)
		case PathClustered:
			n = clusteredSelect(p, m, frag, pred, split)
		case PathNonClustered:
			n = nonClusteredSelect(p, m, frag, pred, split)
		default:
			panic("core: unresolved access path " + path.String())
		}
		split.close(p)
		return n, doneMsg{op: opID, produced: n}
	})
}

// pageSelect is one query's page pipeline, a sub-itinerary (sim.Proc.Steps):
// a page's scan CPU, the predicate over its live slots, and each qualifying
// tuple routed through the split table, with the packet flushes that fill.
// Every page scan (heap, clustered range, spool) uses it, aggregate
// pushdown's included, so per-query instruction costs are charged
// identically.
type pageSelect struct {
	p     *sim.Proc // the process the flushes run for
	node  *nose.Node
	instr int // scan CPU per tuple
	pred  rel.Pred
	split *splitTable
	n     int // qualifying tuples routed

	pg      *wiss.Page
	slot    int
	charged bool
	// beyond: every live tuple of pg looked at so far lies past the range.
	beyond bool
}

func newPageSelect(p *sim.Proc, m *Machine, node *nose.Node, pred rel.Pred, split *splitTable) pageSelect {
	return pageSelect{p: p, node: node, instr: m.Prm.Engine.InstrPerTupleScan, pred: pred, split: split}
}

func (w *pageSelect) begin(pg *wiss.Page) {
	w.pg, w.slot, w.charged, w.beyond = pg, 0, false, true
}

// step takes the page's next stage and returns its completion, or reports
// false once every tuple of the page is routed.
func (w *pageSelect) step() (sim.Time, bool) {
	pg := w.pg
	if !w.charged {
		w.charged = true
		if instr := w.instr * len(pg.Tuples); instr > 0 {
			return w.node.ReserveCPU(instr), true
		}
	}
	st := w.split
	if st.busy() {
		if at, more := st.step(); more {
			return at, true
		}
	}
	// Liveness is read slot by slot, and afresh after every wait: a
	// concurrent delete may tombstone a slot of this page meanwhile.
	attr, lo, hi := w.pred.Attr, w.pred.Lo, w.pred.Hi
	tuples, allLive := pg.Tuples, pg.AllLive()
	for s := w.slot; s < len(tuples); s++ {
		if !allLive && !pg.Live(s) {
			continue
		}
		v := tuples[s].A[attr]
		if v > hi {
			continue
		}
		w.beyond = false
		if v < lo {
			continue
		}
		w.n++
		if d := st.put(&tuples[s]); d >= 0 {
			st.start(w.p, d, false)
			if at, more := st.step(); more {
				w.slot = s + 1
				return at, true
			}
		}
	}
	w.slot = len(tuples)
	return 0, false
}

// heapSelect reads every page of the fragment sequentially (with one page of
// read-ahead) and applies the compiled predicate to every tuple.
func heapSelect(p *sim.Proc, m *Machine, frag *Fragment, pred rel.Pred, split *splitTable) int {
	return scanSelect(p, m, frag, pred, split, frag.File.NewScanner(), false)
}

// scanSelect runs the page pipeline over a scanner's pages as one itinerary,
// with earlyStop (a clustered file in key order) ending after a page whose
// live tuples all lie past the range.
func scanSelect(p *sim.Proc, m *Machine, frag *Fragment, pred rel.Pred, split *splitTable, sc *wiss.Scanner, earlyStop bool) int {
	w := newPageSelect(p, m, frag.Node, pred, split)
	sc.Run(p, w.begin, w.step, func() bool { return earlyStop && w.beyond })
	return w.n
}

// clusteredSelect descends the clustered B-tree to the first qualifying page
// and scans forward only while tuples can still qualify (§5.1: "only that
// portion of the relation corresponding to the range of the query is
// scanned").
func clusteredSelect(p *sim.Proc, m *Machine, frag *Fragment, pred rel.Pred, split *splitTable) int {
	bt, ok := frag.Indexes[pred.Attr]
	if !ok || bt.Kind != wiss.Clustered {
		panic("core: clustered path without clustered index on " + pred.Attr.String())
	}
	start := bt.StartPage(p, pred.Lo)
	if frag.File.Unordered {
		// Overflow inserts appended pages out of key order; the whole
		// file must be visited.
		start = 0
	}
	return scanSelect(p, m, frag, pred, split, frag.File.NewScannerAt(start), !frag.File.Unordered)
}

// nonClusteredSelect walks the dense index's leaf chain over the key range
// and fetches each qualifying tuple's data page individually — in the worst
// case one random I/O per tuple (§5.1).
func nonClusteredSelect(p *sim.Proc, m *Machine, frag *Fragment, pred rel.Pred, split *splitTable) int {
	bt, ok := frag.Indexes[pred.Attr]
	if !ok || bt.Kind != wiss.NonClustered {
		panic("core: non-clustered path without index on " + pred.Attr.String())
	}
	eng := m.Prm.Engine
	n := 0
	var t rel.Tuple // the fetched tuple, a copy: the page may change while p waits
	bt.RangeRIDs(p, pred.Lo, pred.Hi, func(r wiss.RID) {
		t = frag.File.FetchRID(p, r)
		frag.Node.UseCPU(p, eng.InstrPerTupleScan)
		if !frag.File.Page(int(r.Page)).Live(int(r.Slot)) {
			return // stale entry for a tombstoned slot
		}
		n++
		split.send(p, &t)
	})
	return n
}

// spawnSpoolScan starts an operator on `reader` that streams a spool file
// through a split table — the redistribution step of join-overflow resolution
// (§6.2.2) — over the page pipeline. The reader holds the file (a disk
// site's own, a diskless site's spool node), so no page crosses the ring.
func spawnSpoolScan(m *Machine, from *sim.Proc, opID string, site int, file *wiss.File, reader *nose.Node, mkOut func() selectOutput, sched *nose.Port) {
	m.spawnOp(from, opSpec{op: opID, class: "spool-scan", site: site, node: reader, sched: sched}, func(p *sim.Proc) (int, any) {
		out := mkOut()
		split := newSplitTable(reader, m.Prm, out.stream, out.ports, out.route)
		w := newPageSelect(p, m, reader, rel.True(), split)
		if file != nil {
			file.NewScanner().Run(p, w.begin, w.step, nil)
		}
		split.close(p)
		return w.n, doneMsg{op: opID, produced: w.n}
	})
}
