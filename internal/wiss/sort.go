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
			merged := mergeRuns(p, st, src.Name, runs[start:end], key, costs)
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

type runCursor struct {
	f    *File
	page int
	slot int
	cur  *Page
}

func (rc *runCursor) tuple() *rel.Tuple { return &rc.cur.Tuples[rc.slot] }

// advance moves to the next tuple, reading pages as needed. Reports false at
// end of run.
func (rc *runCursor) advance(p *sim.Proc) bool {
	rc.slot++
	if rc.cur != nil && rc.slot < len(rc.cur.Tuples) {
		return true
	}
	rc.page++
	rc.slot = 0
	if rc.page >= rc.f.Pages() {
		rc.cur = nil
		return false
	}
	rc.cur = rc.f.ReadPage(p, rc.page)
	return len(rc.cur.Tuples) > 0
}

func (rc *runCursor) open(p *sim.Proc) bool {
	rc.page, rc.slot = 0, 0
	rc.cur = nil
	if rc.f.Pages() == 0 {
		return false
	}
	rc.cur = rc.f.ReadPage(p, 0)
	return len(rc.cur.Tuples) > 0
}

// mergeRuns merges sorted runs into one file. Every tuple costs a merge-CPU
// charge, then moves from its run to the output page; p takes part only where
// a page does — an output page filling, a run's page running out — and the
// tuples in between are an itinerary (sim.Proc.Steps) of CPU charges.
func mergeRuns(p *sim.Proc, st *Store, name string, runs []*File, key rel.Attr, costs SortCosts) *File {
	out := st.CreateFile(name + ".merge")
	out.Sorted, out.SortKey = true, key
	ap := out.NewAppender()
	var h rel.KeyHeap[*runCursor]
	for _, r := range runs {
		rc := &runCursor{f: r}
		if rc.open(p) {
			h.Add(rc.tuple().A[key], rc)
		}
	}
	h.Init()
	charged := false // the tuple on top of the heap has paid its merge CPU
	step := func() (sim.Time, bool) {
		if charged {
			rc := h.Top()
			if ap.Room() == 1 || rc.slot+1 == len(rc.cur.Tuples) {
				return 0, false // moving it crosses a page boundary: p's part
			}
			ap.Append(p, *rc.tuple())
			rc.slot++
			h.FixTop(rc.tuple().A[key])
		}
		charged = true
		return st.node.ReserveCPU(costs.InstrPerTupleMerge), true
	}
	for h.Len() > 0 {
		p.Steps(step)
		charged = false
		rc := h.Top()
		ap.Append(p, *rc.tuple())
		if rc.advance(p) {
			h.FixTop(rc.tuple().A[key])
		} else {
			h.PopTop()
		}
	}
	ap.Close(p)
	return out
}
