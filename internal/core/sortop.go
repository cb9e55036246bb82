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
	scan := m.resolveScan(q.Scan)
	var res Result
	m.runQuery(&res, func(p *sim.Proc, ib *inbox, schedPort *nose.Port) {
		frags := m.mustScanSites(scan)
		mergeNode := m.Disk[0]
		mergePort := mergeNode.NewPort("merge")
		resRel, rerr := m.newResultRelation(q.ResultName, 0)
		if rerr != nil {
			panic(rerr.Error()) // sorts predate the typed-error path
		}
		res.ResultName = resRel.Name

		// Phase 1: per-site filter + external sort into a local run.
		costs := wiss.SortCosts{
			InstrPerTupleRun:   m.Prm.Engine.InstrPerTupleScan * 3,
			InstrPerTupleMerge: m.Prm.Engine.InstrPerTupleScan,
		}
		for si, frag := range frags {
			site, fr := si, frag
			m.initiate(p, fr.Node, fmt.Sprintf("sort@%d", fr.Node.ID), func(sp *sim.Proc) {
				st := m.StoreOf(fr.Node)
				qual := st.CreateFile("sort.qual")
				ap := qual.NewAppender()
				n := scanFold(sp, m, fr, scan, func(t rel.Tuple) { ap.Append(sp, t) })
				ap.Close(sp)
				run := wiss.SortFile(sp, qual, q.By, m.Prm.Memory.NodeBytes/2, costs)
				st.DropFile(qual)
				nose.SendCtl(sp, fr.Node, schedPort, doneMsg{op: "sort", site: site, produced: n})
				nose.SendCtl(sp, fr.Node, mergePort, sortedRun{site: site, file: run, owner: fr.Node, tuples: n})
			})
		}

		// Phase 2: merge the runs at one site, reading remote run pages
		// over the network, and store the ordered result locally.
		m.initiate(p, mergeNode, fmt.Sprintf("merge@%d", mergeNode.ID), func(mp *sim.Proc) {
			runs := make([]sortedRun, 0, len(frags))
			for len(runs) < len(frags) {
				msg := mergePort.Recv(mp)
				runs = append(runs, msg.Payload.(sortedRun))
			}
			out := resRel.Frags[0].File
			ap := out.NewAppender()
			total := mergeSortedRuns(mp, m, mergeNode, runs, q.By, ap)
			ap.Close(mp)
			out.Sorted, out.SortKey = true, q.By
			for _, r := range runs {
				m.StoreOf(r.owner).DropFile(r.file)
			}
			nose.SendCtl(mp, mergeNode, schedPort, storeDone{op: "merge", site: 0, stored: total})
		})

		mustCollect(ib, ib.dones, "sort", len(frags))
		res.Tuples = mustCollect(ib, ib.stores, "merge", 1)[0].stored
	})
	return res
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
