package bench

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"gamma/internal/rel"
)

// renderTable renders one table to bytes.
func renderTable(tbl *Table) []byte {
	var buf bytes.Buffer
	tbl.Render(&buf)
	return buf.Bytes()
}

// TestCachedTablesMatchUncached is the acceptance contract of the image
// cache: for every experiment, the table produced on machines whose relations
// were attached from cached images (RunSuite always has a cache) must be
// byte-identical to the table produced with no run context, where every data
// point loads its database from scratch — both serially and under -parallel
// workers.
func TestCachedTablesMatchUncached(t *testing.T) {
	o := tinyOptions()
	for _, e := range Experiments() {
		uncached := renderTable(e.Run(o)) // no run context: from-scratch loads
		serial := RunSuite([]Experiment{e}, o, 1)
		parallel := RunSuite([]Experiment{e}, o, 8)
		if got := renderTable(serial[0].Table); !bytes.Equal(got, uncached) {
			t.Errorf("%s: cached serial table differs from uncached:\n--- cached ---\n%s--- uncached ---\n%s",
				e.ID, got, uncached)
		}
		if got := renderTable(parallel[0].Table); !bytes.Equal(got, uncached) {
			t.Errorf("%s: cached parallel table differs from uncached:\n--- cached ---\n%s--- uncached ---\n%s",
				e.ID, got, uncached)
		}
	}
}

// TestSuiteReportsCacheHits: experiments that put one relation on several
// machines must attach it from the cache after the first build, every
// experiment records its setup/query wall split, the suite as a whole
// attaches far more relations than it builds, and a sweep two experiments
// plot is simulated by exactly one of them.
func TestSuiteReportsCacheHits(t *testing.T) {
	// These revisit a relation by construction, whatever the Options:
	// hybrid's two algorithms per ratio, multiuser's private/shared pairs,
	// fig13's memory ratios, table1's sizes (Aheap and Aidx are one Teradata
	// hash file), and so on. (Others — scale100's per-processor databases —
	// only hit via relations earlier experiments built, or never.)
	intrinsicReuse := map[string]bool{
		"bitvector": true, "fig13": true, "hybrid": true,
		"multiuser": true, "placement": true, "recovery": true, "pagesize-default": true,
		"table1": true, "table2": true, "table3": true,
	}
	reports := RunSuite(Experiments(), tinyOptions(), 1)
	byID := map[string]Report{}
	var hits, misses int64
	for _, r := range reports {
		byID[r.ID] = r
		hits += r.ImageHits
		misses += r.ImageMisses
		if r.ImageHits+r.ImageMisses+r.SharedPoints == 0 {
			t.Errorf("%s: neither image-cache lookups nor shared points recorded", r.ID)
			continue
		}
		if intrinsicReuse[r.ID] && r.ImageHits == 0 {
			t.Errorf("%s: %d image misses but no hits — cache never reused a relation",
				r.ID, r.ImageMisses)
		}
		if r.Events == 0 {
			// Plotted a sibling's measurements: built no machine at all.
			if r.Setup != 0 || r.ImageHits+r.ImageMisses != 0 {
				t.Errorf("%s: simulated nothing but reports setup %v and %d image lookups",
					r.ID, r.Setup, r.ImageHits+r.ImageMisses)
			}
			continue
		}
		if r.Setup <= 0 {
			t.Errorf("%s: setup wall time not recorded", r.ID)
		}
		if r.Setup > r.Wall {
			// Legal under parallel points, but this run is serial.
			t.Errorf("%s: serial setup %v exceeds wall %v", r.ID, r.Setup, r.Wall)
		}
	}
	if hits <= misses {
		t.Errorf("suite-wide image cache: %d hits vs %d misses; most relations should be attached from it", hits, misses)
	}

	// The paper measured each of these sweeps once and plotted it twice; in
	// a serial suite the twin that runs second simulates nothing.
	for _, twin := range [][2]string{{"fig1", "fig2"}, {"fig3", "fig4"}, {"fig5", "fig6"}, {"fig7", "fig8"},
		{"fig9", "fig11"}, {"fig10", "fig12"}, {"fig14", "fig15"}} {
		a, b := byID[twin[0]], byID[twin[1]]
		if (a.Events == 0) == (b.Events == 0) {
			t.Errorf("%s/%s: events %d and %d, want exactly one of the twins to simulate", a.ID, b.ID, a.Events, b.Events)
		}
		if a.SharedPoints+b.SharedPoints == 0 {
			t.Errorf("%s/%s: no shared points recorded", a.ID, b.ID)
		}
	}
	// fig13 asks for 8 ratios x {Local, Remote}, hybrid for 8 ratios x
	// {Simple, Hybrid} on Remote: 32 requests, 24 distinct memory points,
	// one machine each, holding Aheap, Aidx and Bprime.
	f13, hyb := byID["fig13"], byID["hybrid"]
	if got := f13.SharedPoints + hyb.SharedPoints; got != int64(len(fig13Ratios)) {
		t.Errorf("fig13 + hybrid took %d shared points, want %d (the Simple/Remote column)", got, len(fig13Ratios))
	}
	if got := f13.ImageHits + f13.ImageMisses + hyb.ImageHits + hyb.ImageMisses; got != int64(3*3*len(fig13Ratios)) {
		t.Errorf("fig13 + hybrid attached %d relations, want 3 on each of %d memory points", got, 3*len(fig13Ratios))
	}
}

// TestImageCacheSingleflight hammers one relation from many goroutines, each
// building its own machine around it: the relation is loaded exactly once,
// exactly one caller is charged the miss, and every machine — all sharing the
// image's frozen pages — answers queries identically (run under -race).
func TestImageCacheSingleflight(t *testing.T) {
	o := tinyOptions()
	o.run = &runCtx{rels: newRelCache()}
	var wg sync.WaitGroup
	secs := make([]float64, 16)
	for i := range secs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Different names and diskless counts: neither is storage.
			g := &gammaSetup{m: o.gammaMachine(2, i%3, false, []relSpec{heapRel(fmt.Sprintf("R%d", i), 500, 1)})}
			secs[i] = g.selectSecs(heapSel(10).of(g.rel(fmt.Sprintf("R%d", i)), 500))
		}(i)
	}
	wg.Wait()
	if h, m := o.run.imgHits.Load(), o.run.imgMisses.Load(); m != 1 || h != 15 {
		t.Errorf("%d misses and %d hits, want exactly 1 build and 15 attaches of it", m, h)
	}
	if o.run.rels.images.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", o.run.rels.images.len())
	}
	for i, s := range secs {
		if s != secs[0] {
			t.Errorf("concurrent attach %d measured %v, want %v", i, s, secs[0])
		}
	}
}

// TestTuplesGeneratedOncePerCache: within one cache every load of a Wisconsin
// relation reads the one slice generated for it, concurrent first requests
// included; another cache generates its own, and without a run context every
// call generates afresh.
func TestTuplesGeneratedOncePerCache(t *testing.T) {
	c := &runCtx{rels: newRelCache()}
	got := make([][]rel.Tuple, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.tuples(500, 1)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("request %d got a second generation of (500, 1)", i)
		}
	}
	if n := c.rels.tuples.len(); n != 1 {
		t.Errorf("cache holds %d generated relations, want 1", n)
	}
	other := &runCtx{rels: newRelCache()}
	if &other.tuples(500, 1)[0] == &got[0][0] {
		t.Error("two caches hand out one generated relation")
	}
	var none *runCtx
	if &none.tuples(500, 1)[0] == &none.tuples(500, 1)[0] {
		t.Error("without a run context two calls returned one generated relation")
	}
}

// recordCaches returns a relation-cache factory for runSuite and the caches it
// has made, the suite's first.
func recordCaches() (func() *relCache, func() []*relCache) {
	var mu sync.Mutex
	var made []*relCache
	return func() *relCache {
			c := newRelCache()
			mu.Lock()
			defer mu.Unlock()
			made = append(made, c)
			return c
		}, func() []*relCache {
			mu.Lock()
			defer mu.Unlock()
			return made
		}
}

// TestEveryRelationBuiltOnce: the suite loads a relation once however many
// machines hold it. Tables 1-3 at one size need five Gamma relations (Aheap
// and Aidx for all three tables, Table 2's Bprime, B and C) and four Teradata
// hash files (A under both names, Bprime, B, C), serially and on four
// workers. Over the whole registry every build, in the suite's cache or in an
// experiment's own, is of a distinct relation: an experiment that owns its
// relations shares no key with any other.
func TestEveryRelationBuiltOnce(t *testing.T) {
	var tables []Experiment
	for _, id := range []string{"table1", "table2", "table3"} {
		e, _ := Lookup(id)
		tables = append(tables, e)
	}
	o := tinyOptions()
	o.Sizes = []int{10000}
	for _, workers := range []int{1, 4} {
		newRels, made := recordCaches()
		var misses, lookups int64
		for _, r := range runSuite(tables, o, workers, newRels) {
			misses += r.ImageMisses
			lookups += r.ImageHits + r.ImageMisses
		}
		if len(made()) != 1 {
			t.Fatalf("workers=%d: Tables 1-3 made %d relation caches, want the suite's alone", workers, len(made()))
		}
		gamma, tera := 0, 0
		for k := range made()[0].images.entries {
			if k.tera {
				tera++
			} else {
				gamma++
			}
		}
		if gamma != 5 || tera != 4 || misses != 9 {
			t.Errorf("workers=%d: built %d Gamma and %d Teradata relation images (%d misses), want 5 and 4",
				workers, gamma, tera, misses)
		}
		// 2+5+2 Gamma relations attached, and 2+5+2 Teradata ones.
		if lookups != 18 {
			t.Errorf("workers=%d: %d relations attached, want 18", workers, lookups)
		}
	}

	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	newRels, made := recordCaches()
	exps := Experiments()
	var misses int64
	for _, r := range runSuite(exps, tinyOptions(), 2, newRels) {
		misses += r.ImageMisses
	}
	own := 0
	for _, e := range exps {
		if e.ownRelations {
			own++
		}
	}
	if len(made()) != 1+own {
		t.Errorf("%d relation caches for %d experiments that own their relations, want one more", len(made()), own)
	}
	for i, c := range made()[1:] {
		if c.images.len() == 0 {
			t.Errorf("experiment-owned cache %d holds no relation", i+1)
		}
	}
	distinct := map[imageKey]bool{}
	for _, c := range made() {
		for k := range c.images.entries {
			distinct[k] = true
			// Two keys that differ only in what cannot shape storage would
			// be one relation built twice.
			if k.rel.name != "" {
				t.Errorf("image key %+v carries a relation name", k.rel)
			}
		}
	}
	if misses != int64(len(distinct)) {
		t.Errorf("%d builds for %d distinct relations across %d caches", misses, len(distinct), len(made()))
	}
}
