package teradata

import (
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wiss"
)

// UpdateKind mirrors the Table 3 single-tuple update workload.
type UpdateKind int

const (
	AppendTuple UpdateKind = iota
	DeleteByKey
	ModifyKeyAttr
	ModifyNonIndexed
	ModifyIndexed
)

// UpdateQuery is one single-tuple update against the Teradata machine.
type UpdateQuery struct {
	Rel      *Relation
	Kind     UpdateKind
	Tuple    rel.Tuple
	Key      int32
	Attr     rel.Attr
	NewValue int32
}

// RunUpdate executes a single-tuple update with full concurrency control and
// recovery (§7): every mutated row is logged (InsertIOs), hash access
// locates rows by primary key in one I/O, and secondary-index maintenance
// adds hashed index-row updates.
func (m *Machine) RunUpdate(q UpdateQuery) Result {
	tc := m.Prm.Tera
	startup := tc.UpdateStartup
	if q.Kind == ModifyKeyAttr {
		// Relocating a row between AMPs is a cross-AMP transaction and
		// takes the full host/IFP coordination path (Table 3 row 4 is
		// the most expensive Teradata update by far).
		startup = tc.HostStartup
	}
	return m.run(startup, func(p *sim.Proc) int {
		if q.Kind == ModifyIndexed {
			// The hashed secondary index locates the row in one index
			// access (exact match on the indexed value) at each AMP
			// until one holds it; then the row and its index row are
			// both rewritten.
			if !q.Rel.Secondary[q.Attr] {
				panic("teradata: ModifyIndexed without index")
			}
			changed := 0
			for amp := 0; amp < len(q.Rel.Frags) && changed == 0; amp++ {
				changed = m.step(p, "modidx", amp, func() int {
					m.AMPs[amp].Drive.Read(p, -200-amp, m.randPage(), m.ampPrm.PageBytes)
					rid, t, ok := find(q.Rel.Frags[amp], q.Attr, q.Key)
					if !ok {
						return 0
					}
					t.Set(q.Attr, q.NewValue)
					q.Rel.Frags[amp].File.UpdateRID(p, rid, t)
					m.logWrite(p, amp, 1)
					m.indexRowUpdate(p, amp)
					return 1
				})
			}
			return changed
		}
		key := q.Key
		if q.Kind == AppendTuple {
			key = q.Tuple.A[q.Rel.KeyAttr]
		}
		amp := m.ampFor(key)
		return m.step(p, [...]string{"append", "delete", "modkey-out", "modify"}[q.Kind], amp, func() int {
			if q.Kind == AppendTuple {
				m.logWrite(p, amp, tc.InsertIOs)
				q.Rel.Frags[amp].File.LoadAppend(q.Tuple)
				q.Rel.N++
				for range q.Rel.Secondary {
					m.indexRowUpdate(p, amp)
				}
				return 1
			}
			rid, t, ok := m.hashLocate(p, amp, q.Rel, q.Key)
			if !ok {
				return 0
			}
			switch q.Kind {
			case DeleteByKey:
				m.logWrite(p, amp, tc.InsertIOs-1)
				q.Rel.Frags[amp].File.DeleteRID(p, rid)
				q.Rel.N--
				for range q.Rel.Secondary {
					m.indexRowUpdate(p, amp)
				}

			case ModifyKeyAttr:
				// The row moves to the AMP its new key hashes to (whose
				// step is the row's insertion), and every secondary
				// index row is rewritten (§7 row 4, the most expensive).
				newAmp := m.ampFor(q.NewValue)
				m.logWrite(p, amp, tc.InsertIOs)
				q.Rel.Frags[amp].File.DeleteRID(p, rid)
				t.Set(q.Rel.KeyAttr, q.NewValue)
				m.Net.TransferBulk(p, m.AMPs[amp], m.AMPs[newAmp], m.Prm.TupleBytes)
				m.step(p, "modkey-in", newAmp, func() int {
					m.logWrite(p, newAmp, tc.InsertIOs)
					q.Rel.Frags[newAmp].File.LoadAppend(t)
					return 1
				})
				for range q.Rel.Secondary {
					m.indexRowUpdate(p, amp)
					m.indexRowUpdate(p, newAmp)
				}

			case ModifyNonIndexed:
				t.Set(q.Attr, q.NewValue)
				q.Rel.Frags[amp].File.UpdateRID(p, rid, t)
				m.logWrite(p, amp, 1)
			}
			return 1
		})
	})
}

func (m *Machine) ampFor(key int32) int {
	return int(rel.Hash64(key, hashSeed) % uint64(len(m.AMPs)))
}

// hashLocate finds the row with the given primary key: one hash access (§3).
func (m *Machine) hashLocate(p *sim.Proc, amp int, r *Relation, key int32) (wiss.RID, rel.Tuple, bool) {
	nd := m.AMPs[amp]
	fr := r.Frags[amp]
	nd.UseCPU(p, m.Prm.Tera.InstrPerTupleScan)
	nd.Drive.Read(p, fr.File.ID, m.randPage(), m.ampPrm.PageBytes)
	return find(fr, r.KeyAttr, key)
}

// find returns the first live row of the fragment whose attribute a is v, by
// a walk in memory that charges nothing.
func find(fr *Fragment, a rel.Attr, v int32) (wiss.RID, rel.Tuple, bool) {
	for pg := 0; pg < fr.File.Pages(); pg++ {
		page := fr.File.Page(pg)
		for s, t := range fr.File.PageTuples(pg) {
			if page.Live(s) && t.Get(a) == v {
				return wiss.RID{Page: int32(pg), Slot: int32(s)}, t, true
			}
		}
	}
	return wiss.RID{}, rel.Tuple{}, false
}

// logWrite charges n logging I/Os at an AMP.
func (m *Machine) logWrite(p *sim.Proc, amp int, n int) {
	nd := m.AMPs[amp]
	nd.UseCPU(p, m.Prm.Tera.InstrPerInsert/2)
	for i := 0; i < n; i++ {
		nd.Drive.Write(p, -1-amp, m.randPage(), m.Prm.TupleBytes)
	}
}

// indexRowUpdate charges one hashed secondary-index row rewrite.
func (m *Machine) indexRowUpdate(p *sim.Proc, amp int) {
	nd := m.AMPs[amp]
	nd.Drive.Read(p, -200-amp, m.randPage(), m.ampPrm.PageBytes)
	nd.Drive.Write(p, -200-amp, m.randPage(), m.ampPrm.PageBytes)
}
