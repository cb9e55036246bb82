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
// merge sort with memBytes of sort memory, charging all I/O and CPU to p: the
// key sort of SortKeys over src's live tuples, then one gather of the tuples
// into the sorted file's pages.
func SortFile(p *sim.Proc, src *File, key rel.Attr, memBytes int, costs SortCosts) *File {
	var refs []*rel.Tuple
	var entries []rel.KeyIndex
	for _, pg := range src.pages {
		for s := range pg.Tuples {
			if pg.Live(s) {
				entries = append(entries, rel.PackKey(pg.Tuples[s].Get(key), len(refs)))
				refs = append(refs, &pg.Tuples[s])
			}
		}
	}
	out, sorted := SortKeys(p, src, entries, memBytes, costs)
	tuples := make([]rel.Tuple, len(sorted))
	for i, e := range sorted {
		tuples[i] = *refs[e.Index()]
	}
	out.LoadDirect(tuples, nil)
	out.Sorted, out.SortKey = true, key
	return out
}

// SortKeys is the external sort of WiSS's sort utility and of the Teradata
// AMPs' sort phase over keys alone: sequential run formation, then merge
// passes whose interleaved run reads are random I/Os, with memBytes of sort
// memory, all I/O and CPU charged to p. entries[i] is the key of src's i-th
// live tuple in scan order, packed with whatever index its caller finds the
// tuple by; the tuples themselves are never read. It returns the sorted file,
// a hollow one (File.LoadHollow), and the entries stably sorted by key, which
// may share entries' array.
//
// The runs and merge outputs are hollow files too, since their page reads and
// writes are all the sort charges for; the entries a file holds are a segment
// of one of two arrays, runs being consecutive loads of the source. Reading
// the source, writing each run and each merge are itineraries
// (sim.Proc.Steps).
func SortKeys(p *sim.Proc, src *File, entries []rel.KeyIndex, memBytes int, costs SortCosts) (*File, []rel.KeyIndex) {
	st := src.st
	tuplesPerMem := max(memBytes/st.prm.SlotBytes, st.prm.TuplesPerPage())

	// Pass 0: run formation. A memory load is a segment of entries, sorted in
	// place.
	var runs []sortRun
	var sorter rel.KeySorter // its buffer serves every run
	loaded, taken, left := 0, 0, 0
	flushRun := func() {
		if taken == loaded {
			return
		}
		run := sortRun{e: entries[loaded:taken]}
		sorter.Sort(run.e)
		run.write(p, st, src.Name+".run", costs.InstrPerTupleRun)
		runs = append(runs, run)
		loaded = taken
	}
	// The source is read as one itinerary that hands p each memory load.
	sc := src.NewScanner()
	fill := func() (sim.Time, bool) {
		n := min(left, tuplesPerMem-(taken-loaded))
		taken, left = taken+n, left-n
		return 0, false
	}
	full := func() bool { return taken-loaded >= tuplesPerMem }
	begin := func(*Page) { left = src.liveAt(sc.idx) }
	for sc.Run(p, begin, fill, full); full(); sc.Run(p, begin, fill, full) {
		for full() {
			flushRun()
			fill() // the rest of the page in hand
		}
	}
	flushRun()
	if len(runs) == 0 {
		return st.CreateFile(src.Name + ".sorted"), nil
	}

	// Merge passes, from one array into the other.
	fanin := max(memBytes/st.prm.PageBytes-1, 2)
	var spare []rel.KeyIndex
	if len(runs) > 1 {
		spare = make([]rel.KeyIndex, len(entries))
	}
	for len(runs) > 1 {
		var next []sortRun
		dst := spare[:0]
		for start := 0; start < len(runs); start += fanin {
			group := runs[start:min(start+fanin, len(runs))]
			merged := sortRun{f: st.CreateFile(src.Name + ".merge")}
			lo := len(dst)
			dst = st.mergeRuns(p, group, merged.f, costs.InstrPerTupleMerge, dst)
			merged.e = dst[lo:]
			next = append(next, merged)
		}
		for _, r := range runs {
			st.DropFile(r.f)
		}
		spare, entries, runs = entries, dst, next
	}
	out := runs[0]
	out.f.Name = src.Name + ".sorted"
	return out.f, out.e
}

// sortRun is a run or a merge output: its hollow file, and its entries in key
// order.
type sortRun struct {
	f *File
	e []rel.KeyIndex
}

// write creates the run's file, name, on st and writes it as one itinerary of
// p: the run formation's CPU, instr a tuple, then each page of the run, then
// the wait for the last write.
func (r *sortRun) write(p *sim.Proc, st *Store, name string, instr int) {
	var ap *Appender
	left, writing := len(r.e), false
	charge := instr * left
	p.Steps(func() (sim.Time, bool) {
		if charge > 0 {
			at := st.node.ReserveCPU(charge)
			charge = 0
			return at, true
		}
		if ap == nil {
			r.f = st.CreateFile(name)
			ap = r.f.NewAppender()
		}
		for {
			if writing {
				if at, more := ap.Step(); more {
					return at, true
				}
				if writing = false; ap.Failed() || left < 0 {
					return 0, false
				}
			}
			switch {
			case left > 0:
				left--
				writing = ap.PutHollow()
			case left == 0:
				left--
				ap.StartClose()
				writing = true
			}
		}
	})
	ap.Fault()
}

// The stages of a merge.
const (
	mergeLoad = iota
	mergeCharge
	mergeMove
	mergeNext
	mergeDone
)

// mergeCursor walks one run's entries page by page. A run's pages are full
// but for the last.
type mergeCursor struct {
	sortRun
	next    int // the entry on top
	end     int // the end of the fetched pages' entries
	page    int // next page to fetch
	perPage int
}

// fetched notes that the cursor's next page is in memory.
func (c *mergeCursor) fetched() {
	c.page++
	c.end = min(c.page*c.perPage, len(c.e))
}

// mergeRuns merges runs of the store into the empty file out, appending their
// entries to dst in key order and returning it, as one itinerary
// (sim.Proc.Steps): each run's first page is read; then every entry reserves
// instr instructions on the store's processor and moves from its run to the
// output page — the page's write when it fills, and the run's next page read
// when it runs out, are stages too; then the last write is waited for. p is
// resumed at the end, or where a write or read would reach a failed drive.
// Equal keys leave the heap in the order container/heap's Init, Fix(h, 0)
// and Pop give them (rel.KeyHeap), so ties keep the order they always had.
func (st *Store) mergeRuns(p *sim.Proc, runs []sortRun, out *File, instr int, dst []rel.KeyIndex) []rel.KeyIndex {
	ap := out.NewAppender()
	var h rel.KeyHeap[*mergeCursor]
	var rd pageRead
	stage, loaded, writing, reading := mergeLoad, 0, false, false
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
				if stage == mergeLoad {
					c := &mergeCursor{sortRun: runs[loaded], perPage: rd.f.capacity()}
					c.fetched()
					h.Add(c.e[0].Key(), c)
					loaded++
				} else {
					h.Top().fetched()
				}
			}
			switch stage {
			case mergeLoad:
				if loaded < len(runs) {
					rd.start(runs[loaded].f, 0, false)
					reading = true
					continue
				}
				h.Init()
				stage = mergeCharge
			case mergeCharge:
				if h.Len() == 0 {
					ap.StartClose()
					writing, stage = true, mergeDone
					continue
				}
				stage = mergeMove
				return st.node.ReserveCPU(instr), true
			case mergeMove: // the entry on top has paid its CPU
				c := h.Top()
				dst = append(dst, c.e[c.next])
				writing = ap.PutHollow()
				c.next++
				stage = mergeNext
			case mergeNext: // find the run's next entry
				switch c := h.Top(); {
				case c.next < c.end:
					h.FixTop(c.e[c.next].Key())
					stage = mergeCharge
				case c.page < c.f.Pages():
					rd.start(c.f, c.page, false)
					reading = true
				default:
					h.PopTop()
					stage = mergeCharge
				}
			case mergeDone:
				return 0, false
			}
		}
	})
	ap.Fault()
	rd.fault()
	return dst
}
