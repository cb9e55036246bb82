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

// sortedRun announces one site's sorted spool file to the merge operator.
type sortedRun struct {
	site   int
	file   *wiss.File
	owner  *nose.Node
	tuples int
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
				nose.SendCtl(sp, fr.Node, mergePort, sortedRun{site: site, file: run, owner: fr.Node, tuples: n})
			})
		}

		// Phase 2: merge the runs at one site, reading remote run pages
		// over the network, and store the ordered result locally.
		m.initiate(p, mergeNode, fmt.Sprintf("merge@%d", mergeNode.ID), func(mp *sim.Proc) {
			if mergePort.Closed() {
				return // the node went down, taking the mailbox, after the scheduler set the operator up
			}
			runs := make([]sortedRun, 0, len(frags))
			dropRuns := func() {
				for _, r := range runs {
					m.StoreOf(r.owner).DropFile(r.file)
				}
			}
			defer opExit(mp, mergeNode, merge.op, 0, mergePort, sched, dropRuns)
			for len(runs) < len(frags) {
				runs = append(runs, recvOp(mp, mergePort).(sortedRun))
			}
			ap := out.File.NewAppender()
			total := mergeSortedRuns(mp, m, mergeNode, runs, q.By, ap)
			ap.Close(mp)
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

// runCursor2 walks one sorted run page by page, paying the owner's drive and
// (for remote runs) the network per page.
type runCursor2 struct {
	run   sortedRun
	page  int
	slot  int
	cache []rel.Tuple
}

func (c *runCursor2) load(p *sim.Proc, m *Machine, reader *nose.Node) bool {
	// slot >= len(cache) also covers "nothing loaded yet" (nil cache) and an
	// empty page, so the page buffer can be reused from one page to the next.
	for c.slot >= len(c.cache) {
		if c.page >= c.run.file.Pages() {
			return false
		}
		pg := c.run.file.ReadPage(p, c.page)
		m.Net.TransferBulk(p, c.run.owner, reader, m.Prm.PageBytes)
		c.cache = pg.LiveTuples(c.cache[:0])
		c.page++
		c.slot = 0
	}
	return true
}

// mergeSortedRuns merges the per-site runs in key order into ap on the reader
// node and returns the total count. Every tuple costs a store-CPU charge, then
// moves from its run to the output page; p takes part only where a page does —
// the output page filling, a run's cached page running out — and the tuples
// in between are an itinerary (sim.Proc.Steps) of CPU charges.
func mergeSortedRuns(p *sim.Proc, m *Machine, reader *nose.Node, runs []sortedRun, by rel.Attr, ap *wiss.Appender) int {
	var h rel.KeyHeap[*runCursor2]
	for _, r := range runs {
		c := &runCursor2{run: r}
		if c.load(p, m, reader) {
			h.Add(c.cache[c.slot].A[by], c)
		}
	}
	h.Init()
	total := 0
	charged := false // the tuple on top of the heap has paid its store CPU
	step := func() (sim.Time, bool) {
		if charged {
			c := h.Top()
			if ap.Room() == 1 || c.slot+1 == len(c.cache) {
				return 0, false // moving it crosses a page boundary: p's part
			}
			ap.Append(p, c.cache[c.slot])
			total++
			c.slot++
			h.FixTop(c.cache[c.slot].A[by])
		}
		charged = true
		return reader.ReserveCPU(m.Prm.Engine.InstrPerTupleStore), true
	}
	for h.Len() > 0 {
		p.Steps(step)
		charged = false
		c := h.Top()
		ap.Append(p, c.cache[c.slot])
		total++
		c.slot++
		if c.load(p, m, reader) {
			h.FixTop(c.cache[c.slot].A[by])
		} else {
			h.PopTop()
		}
	}
	return total
}
