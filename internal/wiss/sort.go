package wiss

import (
	"container/heap"

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
		for s, t := range pg.Tuples {
			if !pg.Live(s) {
				continue
			}
			buf = append(buf, t)
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

func (rc *runCursor) tuple() rel.Tuple { return rc.cur.Tuples[rc.slot] }

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
	rc.page, rc.slot = -1, 0
	rc.cur = nil
	rc.page = 0
	if rc.f.Pages() == 0 {
		return false
	}
	rc.cur = rc.f.ReadPage(p, 0)
	return len(rc.cur.Tuples) > 0
}

type mergeHeap struct {
	cursors []*runCursor
	key     rel.Attr
}

func (h mergeHeap) Len() int { return len(h.cursors) }
func (h mergeHeap) Less(i, j int) bool {
	return h.cursors[i].tuple().Get(h.key) < h.cursors[j].tuple().Get(h.key)
}
func (h mergeHeap) Swap(i, j int) { h.cursors[i], h.cursors[j] = h.cursors[j], h.cursors[i] }
func (h *mergeHeap) Push(x any)   { h.cursors = append(h.cursors, x.(*runCursor)) }
func (h *mergeHeap) Pop() any {
	old := h.cursors
	n := len(old)
	c := old[n-1]
	h.cursors = old[:n-1]
	return c
}

func mergeRuns(p *sim.Proc, st *Store, name string, runs []*File, key rel.Attr, costs SortCosts) *File {
	out := st.CreateFile(name + ".merge")
	out.Sorted, out.SortKey = true, key
	ap := out.NewAppender()
	h := &mergeHeap{key: key}
	for _, r := range runs {
		rc := &runCursor{f: r}
		if rc.open(p) {
			h.cursors = append(h.cursors, rc)
		}
	}
	heap.Init(h)
	for h.Len() > 0 {
		rc := h.cursors[0]
		st.node.UseCPU(p, costs.InstrPerTupleMerge)
		ap.Append(p, rc.tuple())
		if rc.advance(p) {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	ap.Close(p)
	return out
}
