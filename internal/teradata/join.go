package teradata

import (
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wiss"
)

// JoinQuery describes a (possibly two-stage) Teradata join. Selections are
// applied while scanning; there is no selection propagation (§6.1 relies on
// this to explain why joinABprime beats joinAselB on the Teradata machine).
type JoinQuery struct {
	R1    *Relation // the larger/probe-side relation (A)
	Pred1 rel.Pred
	Attr1 rel.Attr
	R2    *Relation // the build-side relation (Bprime / selB)
	Pred2 rel.Pred
	Attr2 rel.Attr

	// Optional second join (joinCselAselB): the intermediate result is
	// joined with R3 on AttrI (an attribute of the stage-one output
	// tuple) = Attr3 (an attribute of R3).
	R3    *Relation
	Pred3 rel.Pred
	Attr3 rel.Attr
	AttrI rel.Attr
}

// RunJoin executes the AMP join algorithm of §6: redistribute both source
// relations by hashing on the join attribute (skipped when the join
// attribute is the primary key), sort each AMP's partitions into temporary
// files, merge-join them, and INSERT INTO the result with logging.
func (m *Machine) RunJoin(q JoinQuery) Result {
	tc := m.Prm.Tera
	nA := len(m.AMPs)
	out := m.newResult()
	total := 0
	elapsed := m.run(tc.HostStartup, func(p *sim.Proc) {
		// Phase 1: scan + (maybe) redistribute both relations.
		side1 := m.routeBuffers(q.R1, q.Pred1)
		side2 := m.routeBuffers(q.R2, q.Pred2)
		m.fanout(p, func(ap *sim.Proc, amp int) {
			m.scanRoute(ap, amp, q.R1, q.Pred1, q.Attr1, side1)
			m.scanRoute(ap, amp, q.R2, q.Pred2, q.Attr2, side2)
		})

		// Phase 2: per-AMP sort-merge join.
		inter := make([][]rel.Tuple, nA)
		m.fanout(p, func(ap *sim.Proc, amp int) {
			inter[amp] = m.sortMerge(ap, amp, side1[amp], q.Attr1, side2[amp], q.Attr2)
		})

		if q.R3 != nil {
			// Stage 2: redistribute the intermediate on AttrI and R3
			// on Attr3, then sort-merge again.
			i1 := make([][]rel.Tuple, nA)
			i2 := m.routeBuffers(q.R3, q.Pred3)
			m.fanout(p, func(ap *sim.Proc, amp int) {
				rd := m.newRedistribution(amp, rel.True(), q.AttrI, i1, hashSeed^0xbeef, true)
				rd.batch(inter[amp])
				ap.Steps(rd.step)
				m.scanRouteSeed(ap, amp, q.R3, q.Pred3, q.Attr3, i2, hashSeed^0xbeef, true)
			})
			m.fanout(p, func(ap *sim.Proc, amp int) {
				inter[amp] = m.sortMerge(ap, amp, i1[amp], q.AttrI, i2[amp], q.Attr3)
			})
		}

		// Result storage with INSERT INTO logging.
		counts := make([]int, nA)
		m.fanout(p, func(ap *sim.Proc, amp int) {
			m.storeBatch(ap, amp, inter[amp], out)
			counts[amp] = len(inter[amp])
		})
		for _, c := range counts {
			total += c
		}
	})
	m.catalogResult(out, total)
	return Result{Elapsed: elapsed, Tuples: total}
}

// storeBatch is INSERT INTO for the result tuples one AMP produced: one
// itinerary, the tuples' insertions strung end to end, so the AMP's process
// is resumed once for the batch.
func (m *Machine) storeBatch(ap *sim.Proc, amp int, batch []rel.Tuple, out *Relation) {
	ins := insertion{m: m, out: out}
	next := 0
	ap.Steps(func() (sim.Time, bool) {
		for {
			if at, more := ins.step(); more {
				return at, true
			}
			if next == len(batch) {
				return 0, false
			}
			ins.start(amp, &batch[next])
			next++
		}
	})
}

// routeBuffers returns the per-AMP destinations of scanRoute over r: whether
// the tuples stay or are rehashed, each AMP ends up with about its own
// fragment's share of the tuples pred selects.
func (m *Machine) routeBuffers(r *Relation, pred rel.Pred) [][]rel.Tuple {
	dest := make([][]rel.Tuple, len(m.AMPs))
	sel := pred.Selectivity(r.N)
	for i, fr := range r.Frags {
		dest[i] = make([]rel.Tuple, 0, withSlack(int(sel*float64(fr.File.Len()))))
	}
	return dest
}

// scanRoute scans one AMP's fragment of r, applies pred, and routes
// qualifying tuples by hashing attr. When attr is the relation's primary key
// the tuples are already correctly placed and redistribution is skipped
// entirely (§6.1's 25-50% improvement).
func (m *Machine) scanRoute(ap *sim.Proc, amp int, r *Relation, pred rel.Pred, attr rel.Attr, dest [][]rel.Tuple) {
	m.scanRouteSeed(ap, amp, r, pred, attr, dest, hashSeed, attr != r.KeyAttr)
}

func (m *Machine) scanRouteSeed(ap *sim.Proc, amp int, r *Relation, pred rel.Pred, attr rel.Attr, dest [][]rel.Tuple, seed uint64, redistribute bool) {
	rd := m.newRedistribution(amp, pred, attr, dest, seed, redistribute)
	step := rd.step
	sc := r.Frags[amp].File.NewScanner()
	for pg := sc.NextPage(ap); pg != nil; pg = sc.NextPage(ap) {
		rd.scan(pg, m.Prm.Tera.InstrPerTupleScan)
		ap.Steps(step)
	}
}

// redistribution is one AMP's itinerary (sim.Proc.Steps) over a batch of
// tuples — a page of a scan, or an intermediate result in memory: the scan CPU
// for the batch, if any, then every qualifying tuple in turn goes to the AMP
// its join attribute hashes to, or straight into this AMP's destination when
// the tuples are already placed. The AMP's process is resumed once per batch.
type redistribution struct {
	qualifying
	amp  int
	attr rel.Attr
	seed uint64
	stay bool // already placed: no redistribution
	ins  tempInsert
}

func (m *Machine) newRedistribution(amp int, pred rel.Pred, attr rel.Attr, dest [][]rel.Tuple, seed uint64, redistribute bool) *redistribution {
	return &redistribution{
		qualifying: qualifying{pred: pred},
		amp:        amp, attr: attr, seed: seed, stay: !redistribute,
		ins: tempInsert{m: m, dest: dest},
	}
}

func (rd *redistribution) step() (sim.Time, bool) {
	m := rd.ins.m
	if at, due := rd.payScan(m.AMPs[rd.amp]); due {
		return at, true
	}
	for {
		if at, more := rd.ins.step(); more {
			return at, true
		}
		t := rd.nextTuple()
		if t == nil {
			return 0, false
		}
		if rd.stay {
			rd.ins.dest[rd.amp] = append(rd.ins.dest[rd.amp], *t)
			continue
		}
		dst := int(rel.Hash64(t.Get(rd.attr), rd.seed) % uint64(len(m.AMPs)))
		rd.ins.start(rd.amp, dst, t)
	}
}

// sortMerge sorts both tuple sets into temporary files and merge-joins
// them, returning one output tuple (the side-1 tuple) per matching pair.
func (m *Machine) sortMerge(ap *sim.Proc, amp int, s1 []rel.Tuple, a1 rel.Attr, s2 []rel.Tuple, a2 rel.Attr) []rel.Tuple {
	tc := m.Prm.Tera
	st := m.stores[m.AMPs[amp].ID]
	nd := m.AMPs[amp]
	costs := wiss.SortCosts{InstrPerTupleRun: tc.InstrPerTupleSort, InstrPerTupleMerge: tc.InstrPerTupleMerge}
	sortMem := m.Prm.Memory.NodeBytes / 2

	// mk stores a redistributed partition (adopting ts) and sorts it.
	mk := func(ts []rel.Tuple, attr rel.Attr, name string) (unsorted, sorted *wiss.File) {
		f := st.CreateFile(name)
		f.LoadDirect(ts, nil)
		return f, wiss.SortFile(ap, f, attr, sortMem, costs)
	}
	u1, f1 := mk(s1, a1, "join.s1")
	u2, f2 := mk(s2, a2, "join.s2")

	// Merge pass: read both sorted files sequentially, then merge over their
	// pages in place.
	c1 := sortedRun{pages: readPages(ap, f1)}
	c2 := sortedRun{pages: readPages(ap, f2)}
	nd.UseCPU(ap, tc.InstrPerTupleMerge*(f1.Len()+f2.Len()))
	var outT []rel.Tuple
	t1, t2 := c1.tuple(), c2.tuple()
	for t1 != nil && t2 != nil {
		v1, v2 := t1.Get(a1), t2.Get(a2)
		switch {
		case v1 < v2:
			t1 = c1.next()
		case v1 > v2:
			t2 = c2.next()
		default:
			// Emit the cross product of the equal runs: every side-1 tuple
			// of the key once per side-2 tuple of it.
			run := 0
			for ; t2 != nil && t2.Get(a2) == v1; t2 = c2.next() {
				run++
			}
			for ; t1 != nil && t1.Get(a1) == v1; t1 = c1.next() {
				for range run {
					outT = append(outT, *t1)
				}
			}
		}
	}
	// Dropped only now, after the last read: dropping purges the buffer pool.
	for _, f := range []*wiss.File{u1, u2, f1, f2} {
		st.DropFile(f)
	}
	return outT
}

// readPages reads a whole file sequentially (charged) and returns its pages.
func readPages(ap *sim.Proc, f *wiss.File) []*wiss.Page {
	var out []*wiss.Page
	sc := f.NewScanner()
	for pg := sc.NextPage(ap); pg != nil; pg = sc.NextPage(ap) {
		out = append(out, pg)
	}
	return out
}

// sortedRun walks the tuples of a sorted file's pages. The sort wrote them
// with an Appender, so every slot is live.
type sortedRun struct {
	pages      []*wiss.Page
	page, slot int
}

// tuple returns the current tuple, nil past the last.
func (r *sortedRun) tuple() *rel.Tuple {
	for r.page < len(r.pages) && r.slot == len(r.pages[r.page].Tuples) {
		r.page, r.slot = r.page+1, 0
	}
	if r.page == len(r.pages) {
		return nil
	}
	return &r.pages[r.page].Tuples[r.slot]
}

// next advances to the following tuple and returns it.
func (r *sortedRun) next() *rel.Tuple {
	r.slot++
	return r.tuple()
}
