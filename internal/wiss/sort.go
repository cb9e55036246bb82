package wiss

import (
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// SortCosts gives the per-tuple CPU charges of the sort utility.
type SortCosts struct {
	InstrPerTupleRun   int // quicksort during run formation
	InstrPerTupleMerge int // heap maintenance during a merge pass
}

// SortFile sorts src on key into a new file on the same store using external
// merge sort with memBytes of sort memory, charging all I/O and CPU to p.
// It reproduces the cost structure of WiSS's sort utility and of the
// Teradata AMPs' sort phase: sequential run formation, then merge passes
// whose interleaved run reads are random I/Os.
func SortFile(p *sim.Proc, src *File, key rel.Attr, memBytes int, costs SortCosts) *File {
	st := src.st
	pageBytes := st.prm.PageBytes
	tuplesPerMem := memBytes / st.prm.SlotBytes
	if tuplesPerMem < st.prm.TuplesPerPage() {
		tuplesPerMem = st.prm.TuplesPerPage()
	}

	// Pass 0: run formation.
	var runs []*File
	buf := make([]rel.Tuple, 0, min(src.Len(), tuplesPerMem)) // one run's worth, reused by every run
	flushRun := func() {
		if len(buf) == 0 {
			return
		}
		st.node.UseCPU(p, costs.InstrPerTupleRun*len(buf))
		rel.SortByAttr(buf, key)
		run := st.CreateFile(src.Name + ".run")
		ap := run.NewAppender()
		for _, t := range buf {
			ap.Append(p, t)
		}
		ap.Close(p)
		run.Sorted, run.SortKey = true, key
		runs = append(runs, run)
		buf = buf[:0]
	}
	sc := src.NewScanner()
	for pg := sc.NextPage(p); pg != nil; pg = sc.NextPage(p) {
		allLive := pg.AllLive()
		for s := range pg.Tuples {
			if !allLive && !pg.Live(s) {
				continue
			}
			buf = append(buf, pg.Tuples[s])
			if len(buf) >= tuplesPerMem {
				flushRun()
			}
		}
	}
	flushRun()
	if len(runs) == 0 {
		out := st.CreateFile(src.Name + ".sorted")
		out.Sorted, out.SortKey = true, key
		return out
	}

	// Merge passes.
	fanin := memBytes/pageBytes - 1
	if fanin < 2 {
		fanin = 2
	}
	for len(runs) > 1 {
		var next []*File
		for start := 0; start < len(runs); start += fanin {
			end := start + fanin
			if end > len(runs) {
				end = len(runs)
			}
			merged := st.CreateFile(src.Name + ".merge")
			merged.Sorted, merged.SortKey = true, key
			ap := merged.NewAppender()
			st.mergeRuns(p, runs[start:end], key, ap, costs.InstrPerTupleMerge)
			ap.Close(p)
			next = append(next, merged)
		}
		for _, r := range runs {
			st.DropFile(r)
		}
		runs = next
	}
	out := runs[0]
	out.Name = src.Name + ".sorted"
	return out
}

// mergeCursor walks one run page by page. Runs are written by an Appender
// and never updated, so every slot of a page is live.
type mergeCursor struct {
	f      *File
	page   int         // next page to fetch
	slot   int         // current tuple in tuples
	tuples []rel.Tuple // the fetched page's tuples
}

// load reads pages until the cursor's slot holds a tuple. It reports false at
// the end of the run.
func (c *mergeCursor) load(p *sim.Proc) bool {
	for c.slot >= len(c.tuples) {
		if c.page >= c.f.Pages() {
			return false
		}
		c.tuples = c.f.ReadPage(p, c.page).Tuples
		c.page++
		c.slot = 0
	}
	return true
}

// mergeRuns merges runs of the store, each sorted on key, into ap. Every tuple
// reserves instr instructions on the store's processor, then moves from its
// run to the output page; p takes part only where a page does — an output page
// filling, a run's page running out — and the tuples in between are an
// itinerary (sim.Proc.Steps) of CPU charges.
func (st *Store) mergeRuns(p *sim.Proc, runs []*File, key rel.Attr, ap *Appender, instr int) {
	var h rel.KeyHeap[*mergeCursor]
	for _, f := range runs {
		c := &mergeCursor{f: f}
		if c.load(p) {
			h.Add(c.tuples[c.slot].A[key], c)
		}
	}
	h.Init()
	charged := false // the tuple on top of the heap has paid its CPU
	step := func() (sim.Time, bool) {
		if charged {
			c := h.Top()
			if ap.Room() == 1 || c.slot+1 == len(c.tuples) {
				return 0, false // moving it crosses a page boundary: p's part
			}
			ap.Append(p, c.tuples[c.slot])
			c.slot++
			h.FixTop(c.tuples[c.slot].A[key])
		}
		charged = true
		return st.node.ReserveCPU(instr), true
	}
	for h.Len() > 0 {
		p.Steps(step)
		charged = false
		c := h.Top()
		ap.Append(p, c.tuples[c.slot])
		c.slot++
		if c.load(p) {
			h.FixTop(c.tuples[c.slot].A[key])
		} else {
			h.PopTop()
		}
	}
}
