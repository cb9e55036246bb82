package wiss

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"testing"

	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

var testCosts = SortCosts{InstrPerTupleRun: 400, InstrPerTupleMerge: 200}

func TestSortFileProducesSortedOutput(t *testing.T) {
	s, st, prm := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(5000, 21), nil)
	var out *File
	s.Spawn("sort", func(p *sim.Proc) {
		out = SortFile(p, f, rel.Unique2, 16*prm.PageBytes, testCosts)
	})
	s.Run()
	if out.Len() != 5000 {
		t.Fatalf("sorted file has %d tuples, want 5000", out.Len())
	}
	last := int32(-1)
	for i := 0; i < out.Pages(); i++ {
		for _, tp := range out.page(i).Tuples {
			k := tp.Get(rel.Unique2)
			if k < last {
				t.Fatalf("output not sorted: %d after %d", k, last)
			}
			last = k
		}
	}
	if !out.Sorted || out.SortKey != rel.Unique2 {
		t.Error("output not marked sorted")
	}
}

func TestSortNeedsMultipleRunsWhenMemorySmall(t *testing.T) {
	s, st, prm := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(2000, 22), nil)
	var small, large sim.Dur
	s.Spawn("sort", func(p *sim.Proc) {
		start := p.Now()
		SortFile(p, f, rel.Unique1, 2*prm.PageBytes, testCosts) // tiny memory
		small = p.Now() - start
		start = p.Now()
		SortFile(p, f, rel.Unique1, 1024*prm.PageBytes, testCosts) // plentiful
		large = p.Now() - start
	})
	s.Run()
	if small <= large {
		t.Errorf("small-memory sort (%v) should cost more than large-memory sort (%v)", small, large)
	}
}

func TestSortEmptyFile(t *testing.T) {
	s, st, prm := testStore(t)
	f := st.CreateFile("empty")
	var out *File
	s.Spawn("sort", func(p *sim.Proc) {
		out = SortFile(p, f, rel.Unique1, 8*prm.PageBytes, testCosts)
	})
	s.Run()
	if out.Len() != 0 {
		t.Errorf("len = %d", out.Len())
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	s, st, prm := testStore(t)
	f := st.CreateFile("r")
	ts := wisconsin.Generate(3000, 23)
	f.LoadDirect(ts, nil)
	var out *File
	s.Spawn("sort", func(p *sim.Proc) {
		out = SortFile(p, f, rel.Ten, 4*prm.PageBytes, testCosts)
	})
	s.Run()
	counts := map[rel.Tuple]int{}
	for _, tp := range ts {
		counts[tp]++
	}
	for i := 0; i < out.Pages(); i++ {
		for _, tp := range out.page(i).Tuples {
			counts[tp]--
		}
	}
	for _, c := range counts {
		if c != 0 {
			t.Fatal("sorted output is not a permutation of the input")
		}
	}
}

// sortOutcome runs a multi-pass sort of n tuples on a many-valued key with
// mem pages of sort memory and returns the sorted file, the simulation and the
// response time.
func sortOutcome(t *testing.T, n, mem int, key rel.Attr) (*sim.Sim, *File, sim.Dur) {
	t.Helper()
	s, st, prm := testStore(t)
	f := st.CreateFile("r")
	f.LoadDirect(wisconsin.Generate(n, 24), nil)
	var out *File
	var elapsed sim.Dur
	s.Spawn("sort", func(p *sim.Proc) {
		out = SortFile(p, f, key, mem*prm.PageBytes, testCosts)
		elapsed = p.Now()
	})
	s.Run()
	return s, out, elapsed
}

// TestSortMergePins holds the merge passes to what they did when every tuple
// parked the sorting process and the merge order came from container/heap: the
// order of the output (equal keys included: rel.Ten has ten values), the
// response time and the retired-event count, recorded at the commit before the
// merge loop became an itinerary over a typed heap.
func TestSortMergePins(t *testing.T) {
	s, out, elapsed := sortOutcome(t, 3000, 3, rel.Ten)
	h := fnv.New64a()
	for i := 0; i < out.Pages(); i++ {
		for _, tp := range out.page(i).Tuples {
			binary.Write(h, binary.LittleEndian, tp.Get(rel.Unique1))
		}
	}
	if got, want := fmt.Sprintf("%016x %d %d", h.Sum64(), elapsed, s.Executed()), "e0688551983ebcf9 61657078 23430"; got != want {
		t.Errorf("order hash, elapsed, events = %s, want %s", got, want)
	}
}

// TestMergeResumesPerPageNotPerTuple: a merge pass hands the sorting process
// the CPU back where a page does — an output page fills, a run's page runs out
// — and there it costs up to three resumes (the itinerary's end plus the page
// I/O's CPU charge and drive wait); the tuples in between cost none.
func TestMergeResumesPerPageNotPerTuple(t *testing.T) {
	const n, mem = 3000, 3
	s, out, _ := sortOutcome(t, n, mem, rel.Unique2)
	prm := testParams()
	pages, perPage := out.Pages(), prm.TuplesPerPage()
	// Two-way merges (three pages of memory) over runs of three pages each.
	passes := bits.Len(uint((n - 1) / (mem * perPage)))
	if out.Len() != n || perPage < 10 || passes < 4 {
		t.Fatalf("sorted %d tuples, %d to a page, in %d merge passes; the test needs many of each", out.Len(), perPage, passes)
	}
	// Each pass reads and writes every page once; run formation does too, at
	// two resumes a page.
	limit := 3*2*pages*passes + 2*2*pages
	if got := int(s.Resumes()); got > limit || got > n*passes/2 {
		t.Errorf("%d resumes to sort %d tuples on %d pages in %d merge passes; want at most %d, three per page and pass",
			got, n, pages, passes, limit)
	}
}
