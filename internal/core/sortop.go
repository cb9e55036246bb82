package core

import (
	"fmt"

	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wiss"
)

// SortQuery retrieves a relation in sorted order: each disk site runs the
// WiSS external sort utility over its (qualifying) fragment, then streams
// its sorted run to a merge operator that writes the globally ordered result
// to a single site — the "retrieve ... sort by" path built from the sort and
// scan utilities §2 credits to WiSS.
type SortQuery struct {
	Scan       ScanSpec
	By         rel.Attr
	ResultName string
}

// RunSort executes a sorted retrieve.
func (m *Machine) RunSort(q SortQuery) Result {
	var res Result
	m.runQuery(&res, m.sortBody(q, &res))
	return res
}

// sortBody builds the scheduler program for a sorted retrieve.
func (m *Machine) sortBody(q SortQuery, res *Result) func(ib *inbox) {
	scan := m.resolveScan(q.Scan)
	costs := wiss.SortCosts{
		InstrPerTupleRun:   m.Prm.Engine.InstrPerTupleScan * 3,
		InstrPerTupleMerge: m.Prm.Engine.InstrPerTupleScan,
	}
	return m.lifecycle(res, true, func(ib *inbox) error {
		p, sched, tag := ib.p, ib.port, ib.tag()
		frags, degraded, err := m.scanSites(scan)
		if err != nil {
			return err
		}
		res.Degraded = degraded
		resRel, err := m.newResultRelation(q.ResultName, 0)
		if err != nil {
			return err
		}
		res.ResultName = resRel.Name
		// The ordered result goes to the first surviving disk site.
		out := resRel.Frags[0]
		mergeNode := out.Node
		merge := ib.track(&opGroup{op: "merge" + tag, ports: []*nose.Port{mergeNode.NewPort("merge")}})
		mergePort := merge.ports[0]

		// Phase 1: per-site filter + external sort into a local run.
		sortOp := "sort" + tag
		for si, frag := range frags {
			site, fr := si, frag
			m.initiate(p, fr.Node, fmt.Sprintf("sort@%d", fr.Node.ID), func(sp *sim.Proc) {
				defer opExit(sp, fr.Node, sortOp, site, nil, sched, nil)
				st := m.StoreOf(fr.Node)
				qual := st.CreateFile("sort.qual")
				ap := qual.NewAppender()
				n := scanFold(sp, m, fr, scan, func(t rel.Tuple) { ap.Append(sp, t) })
				ap.Close(sp)
				run := wiss.SortFile(sp, qual, q.By, m.Prm.Memory.NodeBytes/2, costs)
				st.DropFile(qual)
				nose.SendCtl(sp, fr.Node, sched, doneMsg{op: sortOp, site: site, produced: n})
				nose.SendCtl(sp, fr.Node, mergePort, run) // announce the sorted run to the merge
			})
		}

		// Phase 2: merge the runs at one site, reading remote run pages
		// over the network, and store the ordered result locally.
		m.initiate(p, mergeNode, fmt.Sprintf("merge@%d", mergeNode.ID), func(mp *sim.Proc) {
			if mergePort.Closed() {
				return // the node went down, taking the mailbox, after the scheduler set the operator up
			}
			runs := make([]*wiss.File, 0, len(frags))
			dropRuns := func() {
				for _, r := range runs {
					r.Store().DropFile(r)
				}
			}
			defer opExit(mp, mergeNode, merge.op, 0, mergePort, sched, dropRuns)
			for len(runs) < len(frags) {
				runs = append(runs, recvOp(mp, mergePort).(*wiss.File))
			}
			// Every run page is read at its owner and shipped over the ring.
			fetch := func(f *wiss.File, p *sim.Proc, i int) *wiss.Page {
				pg := f.ReadPage(p, i)
				m.Net.TransferBulk(p, f.Store().Node(), mergeNode, m.Prm.PageBytes)
				return pg
			}
			ap := out.File.NewAppender()
			wiss.MergeRuns(mp, runs, q.By, ap, fetch, mergeNode, m.Prm.Engine.InstrPerTupleStore)
			total := ap.Close(mp)
			out.File.Sorted, out.File.SortKey = true, q.By
			dropRuns()
			nose.SendCtl(mp, mergeNode, sched, doneMsg{op: merge.op, site: 0, produced: total})
			mergePort.Close()
		})

		if _, err := collect(ib, ib.dones, sortOp, len(frags)); err != nil {
			return err
		}
		merged, err := collect(ib, ib.dones, merge.op, 1)
		if err != nil {
			return err
		}
		res.Tuples = merged[0].produced
		return nil
	})
}
