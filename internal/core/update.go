package core

import (
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wiss"
)

// UpdateKind is one of the Table 3 single-tuple update operations.
type UpdateKind int

const (
	// AppendTuple adds one tuple to the relation.
	AppendTuple UpdateKind = iota
	// DeleteByKey removes the tuple whose partitioning-attribute value is
	// Key, locating it through the clustered index.
	DeleteByKey
	// ModifyKeyAttr changes the partitioning attribute itself: the tuple
	// must be relocated to a different processor and every secondary
	// index updated (Table 3, row 4).
	ModifyKeyAttr
	// ModifyNonIndexed changes a non-indexed attribute of the tuple with
	// partitioning key Key (row 5).
	ModifyNonIndexed
	// ModifyIndexed changes an attribute that carries a non-clustered
	// index, using that index to locate the tuple (row 6) — the Halloween
	// problem case, handled with a deferred update file (§7).
	ModifyIndexed
)

func (k UpdateKind) String() string {
	switch k {
	case AppendTuple:
		return "append"
	case DeleteByKey:
		return "delete"
	case ModifyKeyAttr:
		return "modify-key"
	case ModifyNonIndexed:
		return "modify-nonindexed"
	default:
		return "modify-indexed"
	}
}

// UpdateQuery is a single-tuple update.
type UpdateQuery struct {
	Rel  *Relation
	Kind UpdateKind
	// Tuple is the tuple to append (AppendTuple).
	Tuple rel.Tuple
	// Key locates the victim: the partitioning-attribute value for
	// DeleteByKey / ModifyKeyAttr / ModifyNonIndexed, or the indexed
	// attribute's current value for ModifyIndexed.
	Key int32
	// Attr is the attribute modified (Modify* kinds).
	Attr rel.Attr
	// NewValue is the attribute's new value (Modify* kinds).
	NewValue int32
}

// relocated carries a tuple being moved between sites by ModifyKeyAttr.
type relocated struct {
	tuple rel.Tuple
}

// siteForValue returns the fragment index holding partitioning value v.
func (r *Relation) siteForValue(v int32) int {
	switch r.Strategy {
	case Hashed:
		return int(rel.Hash64(v, LoadSeed) % uint64(len(r.Frags)))
	case RangeUser, RangeUniform:
		return rangeSite(r.Bounds, v)
	default:
		return 0 // round-robin: no placement knowledge; caller scans
	}
}

// deferredApply models Gamma's deferred update file for index maintenance
// (§7): the index change is logged to a per-query deferred file, the file
// and its catalog entry are forced to disk, the entries are re-read at
// commit, applied to the index structure, and the updated index page is
// forced. Calibrated against the Table 3 row-1/row-2 gap (~0.42 s for one
// index), which the paper attributes entirely to this machinery.
func deferredApply(p *sim.Proc, st *wiss.Store, apply func()) {
	prm := st.Params()
	drive := st.Node().Drive
	st.Node().UseCPU(p, prm.Engine.InstrPerPageIO*6)
	f := st.CreateFile("deferred")
	drive.Write(p, f.ID, 0, prm.PageBytes) // create + log the deferred entry
	drive.Write(p, f.ID, 2, prm.PageBytes) // catalog/directory force
	drive.Write(p, f.ID, 4, prm.PageBytes) // force at commit
	drive.Read(p, f.ID, 0, prm.PageBytes)  // re-read and apply
	apply()
	drive.Write(p, f.ID, 6, prm.PageBytes) // force the applied index change
	st.DropFile(f)
}

// ccOverhead charges an update operator's concurrency-control work (§7:
// Gamma ran the update tests with full concurrency control): lock manager
// CPU plus one commit-record write.
func ccOverhead(p *sim.Proc, m *Machine, frag *Fragment) {
	st := m.StoreOf(frag.Node)
	frag.Node.UseCPU(p, 20000)
	st.Node().Drive.Write(p, -9, frag.Node.ID*2, m.Prm.PageBytes)
	m.logForce(p, frag.Node) // commit point: force shipped log records
}

// locateByClustered finds the tuple with partAttr == key through the
// clustered index, reading the one page the index names, or by scanning the
// whole file if there is no such index or overflow inserts unordered the
// file; it returns the tuple's RID.
func locateByClustered(p *sim.Proc, m *Machine, frag *Fragment, attr rel.Attr, key int32) (wiss.RID, rel.Tuple, bool) {
	start, end := 0, frag.File.Pages()
	if bt, ok := frag.Indexes[attr]; ok && bt.Kind == wiss.Clustered {
		pn := bt.StartPage(p, key)
		if !frag.File.Unordered { // else overflow pages are out of key order
			start, end = pn, min(pn+1, end)
		}
	}
	for pn := start; pn < end; pn++ {
		pg := frag.File.ReadPage(p, pn)
		frag.Node.UseCPU(p, m.Prm.Engine.InstrPerTupleScan*len(pg.Tuples))
		for s, t := range pg.Tuples {
			if pg.Live(s) && t.Get(attr) == key {
				return wiss.RID{Page: int32(pn), Slot: int32(s)}, t, true
			}
		}
	}
	return wiss.RID{}, rel.Tuple{}, false
}

// insertTuple places t in the fragment, maintaining every index: through the
// clustered index into the proper page (or an overflow page), and entry
// inserts into each dense secondary index via the deferred update file.
func insertTuple(p *sim.Proc, m *Machine, frag *Fragment, t rel.Tuple) {
	m.logRecord(p, frag.Node, m.Prm.TupleBytes)
	st := m.StoreOf(frag.Node)
	var rid wiss.RID
	placed := false
	if bt, ok := clusteredIndexOf(frag); ok {
		key := t.Get(bt.Attr)
		page := bt.StartPage(p, key)
		if frag.File.Pages() > 0 {
			if r, ok := frag.File.InsertIntoPage(p, page, t); ok {
				rid, placed = r, true
			}
		}
		if !placed {
			rid = frag.File.AppendNewPage(p, t)
			bt.InsertClusteredEntry(p, key, rid.Page)
			placed = true
		}
	} else {
		// Heap: append to the last page, or start a new one.
		if n := frag.File.Pages(); n > 0 {
			if r, ok := frag.File.InsertIntoPage(p, n-1, t); ok {
				rid, placed = r, true
			}
		}
		if !placed {
			rid = frag.File.AppendNewPage(p, t)
		}
	}
	for _, bt := range frag.Indexes {
		if bt.Kind != wiss.NonClustered {
			continue
		}
		bt := bt
		deferredApply(p, st, func() {
			bt.InsertEntry(p, t.Get(bt.Attr), rid)
		})
	}
}

func clusteredIndexOf(frag *Fragment) (*wiss.BTree, bool) {
	for _, bt := range frag.Indexes {
		if bt.Kind == wiss.Clustered {
			return bt, true
		}
	}
	return nil, false
}

// deleteTuple tombstones the tuple at rid and removes its secondary index
// entries through the deferred update file.
func deleteTuple(p *sim.Proc, m *Machine, frag *Fragment, rid wiss.RID, t rel.Tuple) {
	m.logRecord(p, frag.Node, m.Prm.TupleBytes)
	st := m.StoreOf(frag.Node)
	frag.File.DeleteRID(p, rid)
	for _, bt := range frag.Indexes {
		if bt.Kind != wiss.NonClustered {
			continue
		}
		bt := bt
		deferredApply(p, st, func() {
			bt.DeleteEntry(p, t.Get(bt.Attr), rid)
		})
	}
}

// RunUpdate executes a single-tuple update query (§7, Table 3). An update
// writes primary fragments only and gets one attempt: a site it needs that is
// down at planning, or lost before its operators report, ends it with a
// typed *ErrUnavailable, and it is never retried, so never applied twice.
func (m *Machine) RunUpdate(q UpdateQuery) Result {
	var res Result
	m.runQuery(&res, m.lifecycle(&res, false, func(ib *inbox) error {
		return m.tryUpdate(ib, q, &res)
	}))
	return res
}

// tryUpdate plans an update's sites and runs its operators, which report
// under op "update".
func (m *Machine) tryUpdate(ib *inbox, q UpdateQuery, res *Result) error {
	p, sched := ib.p, ib.port
	const op = "update"
	var sites []int
	switch q.Kind {
	case AppendTuple:
		sites = []int{q.Rel.siteForValue(q.Tuple.A[q.Rel.PartAttr])}
	case ModifyKeyAttr:
		sites = []int{q.Rel.siteForValue(q.Key), q.Rel.siteForValue(q.NewValue)}
	case ModifyIndexed:
		// The victim could be on any site; every site probes its dense
		// index, but only the holder does work beyond the index lookup.
		// (The paper's benchmark relations hash on unique1, so a unique2
		// predicate gives no placement.)
		for i := range q.Rel.Frags {
			sites = append(sites, i)
		}
	default:
		sites = []int{q.Rel.siteForValue(q.Key)}
	}
	var nodes []*nose.Node
	for _, i := range sites {
		nd := q.Rel.Frags[i].Node
		if !m.driveUp(nd) {
			return &ErrUnavailable{Rel: q.Rel.Name, Frag: i}
		}
		nodes = append(nodes, nd)
	}
	ib.watchOnly(nodes)

	// run starts one update operator, of the given class, on fragment
	// site's node.
	run := func(class string, site int, fn func(up *sim.Proc, frag *Fragment) int) {
		frag := q.Rel.Frags[site]
		m.spawnOp(p, opSpec{op: op, class: class, site: site, node: frag.Node, sched: sched}, func(up *sim.Proc) (int, any) {
			changed := fn(up, frag)
			return changed, doneMsg{op: op, produced: changed}
		})
	}
	switch q.Kind {
	case AppendTuple:
		run("append", sites[0], func(up *sim.Proc, frag *Fragment) int {
			insertTuple(up, m, frag, q.Tuple)
			ccOverhead(up, m, frag)
			q.Rel.N++
			return 1
		})

	case DeleteByKey:
		run("delete", sites[0], func(up *sim.Proc, frag *Fragment) int {
			rid, t, ok := locateByClustered(up, m, frag, q.Rel.PartAttr, q.Key)
			if !ok {
				return 0
			}
			deleteTuple(up, m, frag, rid, t)
			ccOverhead(up, m, frag)
			q.Rel.N--
			return 1
		})

	case ModifyKeyAttr:
		oldSite, newSite := sites[0], sites[1]
		// The inserting operator waits on a port for the relocated tuple,
		// so an abort must reach it.
		in := ib.track(&opGroup{op: op, ports: []*nose.Port{q.Rel.Frags[newSite].Node.NewPort("relocate")}})
		relocPort := in.ports[0]
		newFrag := q.Rel.Frags[newSite]
		// Its site is its port's index in the group, as the abort's
		// acknowledgement names it.
		m.spawnOp(p, opSpec{op: op, class: "modkey-in", node: newFrag.Node, in: relocPort, sched: sched}, func(up *sim.Proc) (int, any) {
			changed := 0
			if rl, ok := recvOp(up, relocPort).(relocated); ok {
				insertTuple(up, m, newFrag, rl.tuple)
				ccOverhead(up, m, newFrag)
				changed = 1
			}
			return changed, doneMsg{op: op, produced: changed}
		})
		run("modkey-out", oldSite, func(up *sim.Proc, oldFrag *Fragment) int {
			conn := oldFrag.Node.Dial(relocPort)
			if rid, t, ok := locateByClustered(up, m, oldFrag, q.Rel.PartAttr, q.Key); ok {
				deleteTuple(up, m, oldFrag, rid, t)
				t.Set(q.Rel.PartAttr, q.NewValue)
				if q.Attr != q.Rel.PartAttr {
					t.Set(q.Attr, q.NewValue)
				}
				conn.Send(up, nose.Data, relocated{tuple: t}, m.Prm.TupleBytes)
			} else {
				conn.Send(up, nose.Data, "not-found", eosBytes)
			}
			return 0
		})

	case ModifyNonIndexed:
		run("modify", sites[0], func(up *sim.Proc, frag *Fragment) int {
			rid, t, ok := locateByClustered(up, m, frag, q.Rel.PartAttr, q.Key)
			if !ok {
				return 0
			}
			t.Set(q.Attr, q.NewValue)
			m.logRecord(up, frag.Node, 2*m.Prm.TupleBytes) // before/after images
			frag.File.UpdateRID(up, rid, t)
			ccOverhead(up, m, frag)
			return 1
		})

	case ModifyIndexed:
		for _, site := range sites {
			run("modidx", site, func(up *sim.Proc, fr *Fragment) int {
				bt, ok := fr.Indexes[q.Attr]
				if !ok || bt.Kind != wiss.NonClustered {
					return 0
				}
				changed := 0
				st := m.StoreOf(fr.Node)
				for _, rid := range bt.SearchRIDs(up, q.Key) {
					pg := fr.File.Page(int(rid.Page))
					if !pg.Live(int(rid.Slot)) {
						continue
					}
					t := fr.File.FetchRID(up, rid)
					t.Set(q.Attr, q.NewValue)
					m.logRecord(up, fr.Node, 2*m.Prm.TupleBytes)
					fr.File.UpdateRID(up, rid, t)
					deferredApply(up, st, func() {
						bt.DeleteEntry(up, q.Key, rid)
						bt.InsertEntry(up, q.NewValue, rid)
					})
					ccOverhead(up, m, fr)
					changed++
				}
				return changed
			})
		}
	}
	dones, err := collect(ib, ib.dones, op, len(sites))
	if err != nil {
		return err
	}
	for _, d := range dones {
		res.Tuples += d.produced
	}
	return nil
}
