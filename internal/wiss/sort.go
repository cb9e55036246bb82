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
// whose interleaved run reads are random I/Os. Reading the source and each
// merge are itineraries (sim.Proc.Steps).
func SortFile(p *sim.Proc, src *File, key rel.Attr, memBytes int, costs SortCosts) *File {
	st := src.st
	pageBytes := st.prm.PageBytes
	tuplesPerMem := memBytes / st.prm.SlotBytes
	if tuplesPerMem < st.prm.TuplesPerPage() {
		tuplesPerMem = st.prm.TuplesPerPage()
	}

	// Pass 0: run formation. A run is sorted as (page, slot) references to
	// the source's tuples, with their keys, so the source must not change
	// while it is sorted.
	var runs []*File
	buf := make([]RID, 0, min(src.Len(), tuplesPerMem)) // one run's worth, reused by every run
	keys := make([]int32, 0, cap(buf))
	flushRun := func() {
		if len(buf) == 0 {
			return
		}
		st.node.UseCPU(p, costs.InstrPerTupleRun*len(buf))
		run := st.CreateFile(src.Name + ".run")
		ap := run.NewAppender()
		// Appended in key order straight from the source, with no sorted
		// copy of it; the permutation is stable among equal keys.
		for _, i := range rel.RadixPermutation(keys) {
			r := buf[i]
			ap.Append(p, src.pages[r.Page].Tuples[r.Slot])
		}
		ap.Close(p)
		run.Sorted, run.SortKey = true, key
		runs = append(runs, run)
		buf, keys = buf[:0], keys[:0]
	}
	// The source is read as one itinerary that hands p each memory load.
	var pg *Page
	slot := 0
	sc := src.NewScanner()
	fill := func() (sim.Time, bool) {
		for ; slot < len(pg.Tuples) && len(buf) < tuplesPerMem; slot++ {
			if pg.Live(slot) {
				buf = append(buf, RID{int32(sc.idx), int32(slot)})
				keys = append(keys, pg.Tuples[slot].Get(key))
			}
		}
		return 0, false
	}
	full := func() bool { return len(buf) >= tuplesPerMem }
	begin := func(next *Page) { pg, slot = next, 0 }
	for sc.Run(p, begin, fill, full); full(); sc.Run(p, begin, fill, full) {
		for full() {
			flushRun()
			fill() // the rest of the page in hand
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

// The stages of a merge.
const (
	mergeCharge = iota
	mergeMove
	mergeNext
)

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

// mergeRuns merges runs of the store, each sorted on key, into ap, as one
// itinerary (sim.Proc.Steps): every tuple reserves instr instructions on the
// store's processor, then moves from its run to the output page — the page's
// write when it fills, and the run's next page read when it runs out, are
// stages too. p is resumed at the end, or where a write or read would reach a
// failed drive.
func (st *Store) mergeRuns(p *sim.Proc, runs []*File, key rel.Attr, ap *Appender, instr int) {
	var h rel.KeyHeap[*mergeCursor]
	for _, f := range runs {
		c := &mergeCursor{f: f}
		if c.load(p) {
			h.Add(c.tuples[c.slot].A[key], c)
		}
	}
	h.Init()
	var rd pageRead
	stage, writing, reading := mergeCharge, false, false
	p.Steps(func() (sim.Time, bool) {
		for {
			if writing {
				if at, more := ap.Step(); more {
					return at, true
				}
				if writing = false; ap.Failed() {
					return 0, false
				}
			}
			if reading {
				if at, more := rd.step(); more {
					return at, true
				}
				if reading = false; rd.failed {
					return 0, false
				}
				t := h.Top()
				t.tuples, t.slot = t.f.pages[t.page].Tuples, 0
				t.page++
			}
			switch stage {
			case mergeCharge:
				if h.Len() == 0 {
					return 0, false
				}
				stage = mergeMove
				return st.node.ReserveCPU(instr), true
			case mergeMove: // the tuple on top has paid its CPU
				t := h.Top()
				writing = ap.Put(t.tuples[t.slot])
				t.slot++
				stage = mergeNext
			case mergeNext: // find the run's next tuple
				switch t := h.Top(); {
				case t.slot < len(t.tuples):
					h.FixTop(t.tuples[t.slot].A[key])
					stage = mergeCharge
				case t.page < t.f.Pages():
					rd.start(t.f, t.page, false)
					reading = true
				default:
					h.PopTop()
					stage = mergeCharge
				}
			}
		}
	})
	ap.Fault()
	rd.fault()
}
