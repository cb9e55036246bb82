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
	res := m.run(tc.HostStartup, func(p *sim.Proc) int {
		// Phase 1: scan + (maybe) redistribute both relations.
		side1 := m.routeBuffers(q.R1, q.Pred1)
		side2 := m.routeBuffers(q.R2, q.Pred2)
		m.fanout(p, "route", func(ap *sim.Proc, amp int) int {
			m.scanRoute(ap, amp, q.R1, q.Pred1, q.Attr1, side1)
			m.scanRoute(ap, amp, q.R2, q.Pred2, q.Attr2, side2)
			return 0
		})

		// Phase 2: per-AMP sort-merge join.
		inter := make([][]*rel.Tuple, nA)
		m.fanout(p, "merge", func(ap *sim.Proc, amp int) int {
			inter[amp] = m.sortMerge(ap, amp, &side1[amp], &side2[amp])
			return len(inter[amp])
		})

		if q.R3 != nil {
			// Stage 2: redistribute the intermediate on AttrI and R3
			// on Attr3, then sort-merge again.
			i1 := make([]partition, nA)
			i2 := m.routeBuffers(q.R3, q.Pred3)
			m.fanout(p, "route2", func(ap *sim.Proc, amp int) int {
				rd := m.newRedistribution(amp, rel.True(), q.AttrI, i1, hashSeed^0xbeef, true)
				rd.batch(inter[amp])
				ap.Steps(rd.step)
				m.scanRouteSeed(ap, amp, q.R3, q.Pred3, q.Attr3, i2, hashSeed^0xbeef, true)
				return 0
			})
			m.fanout(p, "merge2", func(ap *sim.Proc, amp int) int {
				inter[amp] = m.sortMerge(ap, amp, &i1[amp], &i2[amp])
				return len(inter[amp])
			})
		}

		// Result storage with INSERT INTO logging.
		return m.fanout(p, "store", func(ap *sim.Proc, amp int) int {
			m.storeBatch(ap, amp, inter[amp], out)
			return len(inter[amp])
		})
	})
	m.catalogResult(out, res.Tuples)
	return res
}

// storeBatch is INSERT INTO for the result tuples one AMP produced: one
// itinerary, the tuples' insertions strung end to end, so the AMP's process
// is resumed once for the batch. The insertions copy the tuples into out.
func (m *Machine) storeBatch(ap *sim.Proc, amp int, batch []*rel.Tuple, out *Relation) {
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
			ins.start(amp, batch[next])
			next++
		}
	})
}

// partition is what redistribution routes to one AMP — its temporary file —
// as references: refs[i] points at a tuple in a relation's pages, which
// nothing writes while the query runs (Machine.run runs one query to
// completion), and keys[i] holds its join key, packed with i for the sort.
type partition struct {
	refs []*rel.Tuple
	keys []rel.KeyIndex
}

// add routes t, whose join key is key, to the partition.
func (pt *partition) add(t *rel.Tuple, key int32) {
	pt.keys = append(pt.keys, rel.PackKey(key, len(pt.refs)))
	pt.refs = append(pt.refs, t)
}

// routeBuffers returns the per-AMP destinations of scanRoute over r: whether
// the tuples stay or are rehashed, each AMP ends up with about its own
// fragment's share of the tuples pred selects.
func (m *Machine) routeBuffers(r *Relation, pred rel.Pred) []partition {
	dest := make([]partition, len(m.AMPs))
	sel := pred.Selectivity(r.N)
	for i, fr := range r.Frags {
		n := withSlack(int(sel * float64(fr.File.Len())))
		dest[i] = partition{refs: make([]*rel.Tuple, 0, n), keys: make([]rel.KeyIndex, 0, n)}
	}
	return dest
}

// scanRoute scans one AMP's fragment of r, applies pred, and routes
// qualifying tuples by hashing attr. When attr is the relation's primary key
// the tuples are already correctly placed and redistribution is skipped
// entirely (§6.1's 25-50% improvement).
func (m *Machine) scanRoute(ap *sim.Proc, amp int, r *Relation, pred rel.Pred, attr rel.Attr, dest []partition) {
	m.scanRouteSeed(ap, amp, r, pred, attr, dest, hashSeed, attr != r.KeyAttr)
}

func (m *Machine) scanRouteSeed(ap *sim.Proc, amp int, r *Relation, pred rel.Pred, attr rel.Attr, dest []partition, seed uint64, redistribute bool) {
	rd := m.newRedistribution(amp, pred, attr, dest, seed, redistribute)
	instr := m.Prm.Tera.InstrPerTupleScan
	r.Frags[amp].File.NewScanner().Run(ap, func(pg *wiss.Page) { rd.scan(pg, instr) }, rd.step, nil)
}

// redistribution is one AMP's itinerary (sim.Proc.Steps) over a batch of
// tuples — a page of a scan, or an intermediate result in memory: the scan CPU
// for the batch, if any, then every qualifying tuple in turn goes to the AMP
// its join attribute hashes to, or straight into this AMP's destination when
// the tuples are already placed. The AMP's process is resumed once per batch
// or scan.
type redistribution struct {
	qualifying
	amp  int
	attr rel.Attr
	seed uint64
	stay bool // already placed: no redistribution
	ins  tempInsert
}

func (m *Machine) newRedistribution(amp int, pred rel.Pred, attr rel.Attr, dest []partition, seed uint64, redistribute bool) *redistribution {
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
		key := t.Get(rd.attr)
		if rd.stay {
			rd.ins.dest[rd.amp].add(t, key)
			continue
		}
		dst := int(rel.Hash64(key, rd.seed) % uint64(len(m.AMPs)))
		rd.ins.start(rd.amp, dst, t, key)
	}
}

// sortMerge sorts both partitions' keys, their temporary files holding page
// structure only (wiss.SortKeys), and merge-joins them, returning one output
// tuple (a reference to the side-1 tuple) per matching pair.
func (m *Machine) sortMerge(ap *sim.Proc, amp int, s1, s2 *partition) []*rel.Tuple {
	tc := m.Prm.Tera
	st := m.stores[m.AMPs[amp].ID]
	nd := m.AMPs[amp]
	costs := wiss.SortCosts{InstrPerTupleRun: tc.InstrPerTupleSort, InstrPerTupleMerge: tc.InstrPerTupleMerge}
	sortMem := m.Prm.Memory.NodeBytes / 2

	// mk stores a redistributed partition and sorts it.
	mk := func(pt *partition, name string) (unsorted, sorted *wiss.File, keys []rel.KeyIndex) {
		f := st.CreateFile(name)
		f.LoadHollow(len(pt.keys))
		sorted, keys = wiss.SortKeys(ap, f, pt.keys, sortMem, costs)
		return f, sorted, keys
	}
	u1, f1, k1 := mk(s1, "join.s1")
	u2, f2, k2 := mk(s2, "join.s2")

	// Merge pass: read both sorted files sequentially, then merge their keys.
	readPages(ap, f1)
	readPages(ap, f2)
	nd.UseCPU(ap, tc.InstrPerTupleMerge*(f1.Len()+f2.Len()))
	// A join on a key of either side matches at most the smaller side.
	outT := make([]*rel.Tuple, 0, min(len(k1), len(k2)))
	for i, j := 0, 0; i < len(k1) && j < len(k2); {
		v1, v2 := k1[i].Key(), k2[j].Key()
		switch {
		case v1 < v2:
			i++
		case v1 > v2:
			j++
		default:
			// Emit the cross product of the equal runs: every side-1 tuple
			// of the key once per side-2 tuple of it.
			run := 0
			for ; j < len(k2) && k2[j].Key() == v1; j++ {
				run++
			}
			for ; i < len(k1) && k1[i].Key() == v1; i++ {
				t := s1.refs[k1[i].Index()]
				for range run {
					outT = append(outT, t)
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

// readPages reads a whole file sequentially (charged).
func readPages(ap *sim.Proc, f *wiss.File) {
	f.NewScanner().Run(ap, func(*wiss.Page) {}, noStages, nil)
}

// noStages: the page costs nothing past its read.
func noStages() (sim.Time, bool) { return 0, false }
