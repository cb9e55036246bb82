package wiss

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// sortCase is one input of the differential sort test: n tuples whose key
// (Unique2) is drawn from [0, keys), every dead-th slot tombstoned (0: none),
// sorted with mem pages of memory.
type sortCase struct {
	n, keys, dead, mem int
	seed               uint64
}

func (c sortCase) String() string {
	return fmt.Sprintf("n=%d keys=%d dead=%d mem=%d seed=%d", c.n, c.keys, c.dead, c.mem, c.seed)
}

// tuples returns the case's input, its keys in Unique2.
func (c sortCase) tuples() []rel.Tuple {
	if c.n == 0 {
		return nil
	}
	ts := wisconsin.Generate(c.n, c.seed)
	rng := rand.New(rand.NewPCG(c.seed, 7))
	for i := range ts {
		ts[i].Set(rel.Unique2, int32(rng.IntN(c.keys)))
	}
	return ts
}

// sortRunOutcome is what one sort did: its events, its trace and the order
// of its output.
type sortRunOutcome struct {
	executed uint64
	elapsed  sim.Time
	trace    []byte
	order    []rel.Tuple
}

// runSort loads c's input into a fresh traced store and sorts it with sort,
// which returns the output order.
func runSort(t *testing.T, c sortCase, hollow bool, sort func(p *sim.Proc, src *File, mem int) []rel.Tuple) sortRunOutcome {
	t.Helper()
	s, st, prm := testStore(t)
	col := trace.NewCollector()
	s.SetSink(col)
	ts := c.tuples()
	src := st.CreateFile("r")
	if hollow {
		src.LoadHollow(len(ts))
	} else {
		src.LoadDirect(ts, nil)
	}
	if c.dead > 0 {
		for i := 0; i < c.n; i += c.dead {
			pg := src.pages[i/prm.TuplesPerPage()]
			pg.Kill(i % prm.TuplesPerPage())
			src.nTuples--
		}
	}
	var out sortRunOutcome
	s.Spawn("sort", func(p *sim.Proc) { out.order = sort(p, src, c.mem*prm.PageBytes) })
	out.elapsed = s.Run()
	out.executed = s.Executed()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.trace = buf.Bytes()
	return out
}

// fileOrder returns f's tuples in page order.
func fileOrder(f *File) []rel.Tuple {
	var ts []rel.Tuple
	for _, pg := range f.pages {
		ts = append(ts, pg.Tuples...)
	}
	return ts
}

// TestKeySortMatchesReference holds SortFile, and SortKeys over a hollow
// source, to the tuple-moving sort they replaced (refSortFile): on seeded
// random inputs — duplicate keys, tombstoned source slots, an empty source,
// one run, many runs, and several merge passes at fan-in 2 — the same events,
// the same trace byte for byte, and the same output order, ties included.
func TestKeySortMatchesReference(t *testing.T) {
	cases := []sortCase{
		{n: 0, keys: 1, mem: 3, seed: 1},          // empty
		{n: 700, keys: 100, mem: 1024, seed: 2},   // one run
		{n: 1, keys: 1, mem: 3, seed: 3},          // one tuple
		{n: 2000, keys: 10, mem: 3, seed: 4},      // many duplicates, fan-in 2, many passes
		{n: 2000, keys: 1 << 30, mem: 3, seed: 5}, // keys over all four bytes
		{n: 1500, keys: 50, dead: 7, mem: 4, seed: 6},
		{n: 3000, keys: 3000, dead: 3, mem: 16, seed: 7},
	}
	rng := rand.New(rand.NewPCG(45, 45))
	for i := 0; i < 8; i++ {
		dead := []int{0, 0, 2, 5, 11}[rng.IntN(5)]
		cases = append(cases, sortCase{n: rng.IntN(2500), keys: 1 + rng.IntN(400), dead: dead, mem: 3 + rng.IntN(10), seed: uint64(100 + i)})
	}
	key := rel.Unique2
	costs := SortCosts{InstrPerTupleRun: 400, InstrPerTupleMerge: 200}
	for _, c := range cases {
		ref := runSort(t, c, false, func(p *sim.Proc, src *File, mem int) []rel.Tuple {
			return fileOrder(refSortFile(p, src, key, mem, costs))
		})
		got := runSort(t, c, false, func(p *sim.Proc, src *File, mem int) []rel.Tuple {
			return fileOrder(SortFile(p, src, key, mem, costs))
		})
		if c.n > 0 && len(ref.trace) == 0 {
			t.Fatalf("%v: the reference sort left no trace", c)
		}
		compareSorts(t, c, "SortFile", got, ref)
		if c.dead > 0 {
			continue // a hollow file has no tombstones
		}
		// SortKeys reads only a hollow source's page structure.
		ts := c.tuples()
		hollow := runSort(t, c, true, func(p *sim.Proc, src *File, mem int) []rel.Tuple {
			entries := make([]rel.KeyIndex, len(ts))
			for i := range ts {
				entries[i] = rel.PackKey(ts[i].Get(key), i)
			}
			f, sorted := SortKeys(p, src, entries, mem, costs)
			if f.Len() != len(sorted) || f.Pages() != (len(sorted)+f.capacity()-1)/f.capacity() {
				t.Errorf("%v: SortKeys file has %d tuples on %d pages for %d keys", c, f.Len(), f.Pages(), len(sorted))
			}
			order := make([]rel.Tuple, len(sorted))
			for i, e := range sorted {
				order[i] = ts[e.Index()]
			}
			return order
		})
		compareSorts(t, c, "SortKeys", hollow, ref)
	}
}

func compareSorts(t *testing.T, c sortCase, name string, got, ref sortRunOutcome) {
	t.Helper()
	if got.executed != ref.executed || got.elapsed != ref.elapsed {
		t.Errorf("%v: %s executed %d events in %d us, the reference %d in %d", c, name, got.executed, got.elapsed, ref.executed, ref.elapsed)
	}
	if !bytes.Equal(got.trace, ref.trace) {
		t.Errorf("%v: %s trace (%d bytes) differs from the reference's (%d bytes)", c, name, len(got.trace), len(ref.trace))
	}
	if !slices.Equal(got.order, ref.order) {
		t.Errorf("%v: %s output order differs from the reference's", c, name)
	}
}

// TestKeySorterMatchesStableSort: one KeySorter, reused across calls of
// growing and shrinking length, orders (key, index) entries as a stable sort
// by key does — with keys that share their high bytes (a pass skipped) and
// keys that do not, negative ones included.
func TestKeySorterMatchesStableSort(t *testing.T) {
	var s rel.KeySorter
	rng := rand.New(rand.NewPCG(9, 9))
	for i, n := range []int{0, 1, 2, 17, 1000, 3, 5000, 64, 2500, 1} {
		base := []int32{0, -1 << 31, -5}[i%3]
		for _, span := range []int64{1, 7, 256, 1 << 16, 1 << 24, 1 << 32} {
			e := make([]rel.KeyIndex, n)
			for j := range e {
				e[j] = rel.PackKey(base+int32(rng.Int64N(span)), j)
			}
			want := slices.Clone(e)
			slices.SortStableFunc(want, func(a, b rel.KeyIndex) int { return cmp.Compare(a.Key(), b.Key()) })
			s.Sort(e)
			if !slices.Equal(e, want) {
				t.Fatalf("call %d: %d keys from %d over a span of %d: radix order differs from the stable sort", i, n, base, span)
			}
		}
	}
}

// refSortFile is the tuple-moving external sort that SortFile replaced, kept
// as the reference its key sort must reproduce event for event. It sorts src on key into a new file on the same store using external
// merge sort with memBytes of sort memory, charging all I/O and CPU to p.
// It reproduces the cost structure of WiSS's sort utility and of the
// Teradata AMPs' sort phase: sequential run formation, then merge passes
// whose interleaved run reads are random I/Os. Reading the source and each
// merge are itineraries (sim.Proc.Steps).
func refSortFile(p *sim.Proc, src *File, key rel.Attr, memBytes int, costs SortCosts) *File {
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
		perm := make([]int, len(keys))
		for i := range perm {
			perm[i] = i
		}
		slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
		for _, i := range perm {
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
			refMergeRuns(st, p, runs[start:end], key, ap, costs.InstrPerTupleMerge)
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
	refCharge = iota
	refMove
	refNext
)

// refCursor walks one run page by page. Runs are written by an Appender
// and never updated, so every slot of a page is live.
type refCursor struct {
	f      *File
	page   int         // next page to fetch
	slot   int         // current tuple in tuples
	tuples []rel.Tuple // the fetched page's tuples
}

// load reads pages until the cursor's slot holds a tuple. It reports false at
// the end of the run.
func (c *refCursor) load(p *sim.Proc) bool {
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
func refMergeRuns(st *Store, p *sim.Proc, runs []*File, key rel.Attr, ap *Appender, instr int) {
	var h rel.KeyHeap[*refCursor]
	for _, f := range runs {
		c := &refCursor{f: f}
		if c.load(p) {
			h.Add(c.tuples[c.slot].A[key], c)
		}
	}
	h.Init()
	var rd pageRead
	stage, writing, reading := refCharge, false, false
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
			case refCharge:
				if h.Len() == 0 {
					return 0, false
				}
				stage = refMove
				return st.node.ReserveCPU(instr), true
			case refMove: // the tuple on top has paid its CPU
				t := h.Top()
				writing = ap.Put(t.tuples[t.slot])
				t.slot++
				stage = refNext
			case refNext: // find the run's next tuple
				switch t := h.Top(); {
				case t.slot < len(t.tuples):
					h.FixTop(t.tuples[t.slot].A[key])
					stage = refCharge
				case t.page < t.f.Pages():
					rd.start(t.f, t.page, false)
					reading = true
				default:
					h.PopTop()
					stage = refCharge
				}
			}
		}
	})
	ap.Fault()
	rd.fault()
}
