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
	out := &Relation{Name: "result", KeyAttr: rel.Unique1, Secondary: map[rel.Attr]bool{}}
	for _, nd := range m.AMPs {
		st := m.stores[nd.ID]
		out.Frags = append(out.Frags, &Fragment{Node: nd, File: st.CreateFile("result")})
	}
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
				for _, t := range inter[amp] {
					dst := int(rel.Hash64(t.Get(q.AttrI), hashSeed^0xbeef) % uint64(nA))
					m.tempInsert(ap, amp, dst)
					i1[dst] = append(i1[dst], t)
				}
				m.scanRouteSeed(ap, amp, q.R3, q.Pred3, q.Attr3, i2, hashSeed^0xbeef, true)
			})
			m.fanout(p, func(ap *sim.Proc, amp int) {
				inter[amp] = m.sortMerge(ap, amp, i1[amp], q.AttrI, i2[amp], q.Attr3)
			})
		}

		// Result storage with INSERT INTO logging.
		counts := make([]int, nA)
		m.fanout(p, func(ap *sim.Proc, amp int) {
			for _, t := range inter[amp] {
				m.insertResult(ap, amp, t, out)
			}
			counts[amp] = len(inter[amp])
		})
		for _, c := range counts {
			total += c
		}
	})
	m.catalog[out.Name] = out
	out.N = total
	return Result{Elapsed: elapsed, Tuples: total}
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
	tc := m.Prm.Tera
	fr := r.Frags[amp]
	nd := m.AMPs[amp]
	sc := fr.File.NewScanner()
	for pg := sc.NextPage(ap); pg != nil; pg = sc.NextPage(ap) {
		nd.UseCPU(ap, tc.InstrPerTupleScan*len(pg.Tuples))
		for s, t := range pg.Tuples {
			if !pg.Live(s) || !pred.Match(t) {
				continue
			}
			if !redistribute {
				dest[amp] = append(dest[amp], t)
				continue
			}
			dst := int(rel.Hash64(t.Get(attr), seed) % uint64(len(m.AMPs)))
			m.tempInsert(ap, amp, dst)
			dest[dst] = append(dest[dst], t)
		}
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

	mk := func(ts []rel.Tuple, attr rel.Attr, name string) *wiss.File {
		f := st.CreateFile(name)
		f.LoadDirect(ts, nil)
		return wiss.SortFile(ap, f, attr, sortMem, costs)
	}
	f1 := mk(s1, a1, "join.s1")
	f2 := mk(s2, a2, "join.s2")

	// Merge pass: read both sorted files sequentially.
	t1 := fileTuples(ap, f1)
	t2 := fileTuples(ap, f2)
	nd.UseCPU(ap, tc.InstrPerTupleMerge*(len(t1)+len(t2)))
	var outT []rel.Tuple
	i, j := 0, 0
	for i < len(t1) && j < len(t2) {
		v1, v2 := t1[i].Get(a1), t2[j].Get(a2)
		switch {
		case v1 < v2:
			i++
		case v1 > v2:
			j++
		default:
			// Emit the cross product of the equal runs.
			j2 := j
			for j2 < len(t2) && t2[j2].Get(a2) == v1 {
				outT = append(outT, t1[i])
				j2++
			}
			i++
		}
	}
	st.DropFile(f1)
	st.DropFile(f2)
	return outT
}

// fileTuples reads a whole file sequentially (charged) into memory.
func fileTuples(ap *sim.Proc, f *wiss.File) []rel.Tuple {
	out := make([]rel.Tuple, 0, f.Len())
	sc := f.NewScanner()
	for pg := sc.NextPage(ap); pg != nil; pg = sc.NextPage(ap) {
		out = pg.LiveTuples(out)
	}
	return out
}
