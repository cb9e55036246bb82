package bench

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
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
// cache: every experiment's table from machines whose relations were attached
// from cached images (RunSuite always has a cache) is byte-identical to its
// table with no run context, where every data point loads its database from
// scratch: alone in a RunSuite on eight workers, where every experiment's
// data points run concurrently; in the serial whole-registry run; and in the
// whole registry run in reverse on eight workers, where who builds an image
// is first-come (run under -race).
func TestCachedTablesMatchUncached(t *testing.T) {
	uncached := uncachedRun()
	check := func(how string, reports []Report) {
		for _, r := range reports {
			if got := renderTable(r.Table); !bytes.Equal(got, uncached[r.ID]) {
				t.Errorf("%s: cached %s table differs from uncached:\n--- cached ---\n%s--- uncached ---\n%s",
					r.ID, how, got, uncached[r.ID])
			}
		}
	}
	for _, alone := range aloneRun() {
		check("alone", alone.reports)
	}
	check("serial", serialRun().reports)
	check("parallel", parallelRun().reports)
}

// TestSuiteReportsCacheHits: experiments that put one relation on several
// machines must attach it from the cache after the first build, every
// experiment records its setup/query wall split, the suite as a whole
// attaches far more relations than it builds, and a sweep two experiments
// plot is simulated by exactly one of them: so says the serial whole-registry
// run.
func TestSuiteReportsCacheHits(t *testing.T) {
	// These revisit a relation by construction, whatever the Options:
	// hybrid's two algorithms per ratio, multiuser's private/shared pairs,
	// fig13's memory ratios, table1's sizes (Aheap and Aidx are one Teradata
	// hash file), and so on. (Others only hit via relations earlier
	// experiments built, or never; scale100 images nothing, loading each
	// relation straight onto its one machine from the suite's rows.)
	intrinsicReuse := map[string]bool{
		"bitvector": true, "fig13": true, "hybrid": true,
		"multiuser": true, "placement": true, "recovery": true, "pagesize-default": true,
		"table1": true, "table2": true, "table3": true,
	}
	byID := map[string]Report{}
	var hits, misses int64
	for _, r := range serialRun().reports {
		byID[r.ID] = r
		hits += r.ImageHits
		misses += r.ImageMisses
		// A generation through the run context is a lookup of the
		// relation cache too: it is how a straight load reads it.
		lookups := r.ImageHits + r.ImageMisses + r.Generated
		if lookups+r.SharedPoints == 0 {
			t.Errorf("%s: neither relation-cache lookups nor shared points recorded", r.ID)
			continue
		}
		if intrinsicReuse[r.ID] && r.ImageHits == 0 {
			t.Errorf("%s: %d image misses but no hits — cache never reused a relation",
				r.ID, r.ImageMisses)
		}
		if r.Events == 0 {
			// Plotted a sibling's measurements: built no machine at all.
			if r.Setup != 0 || lookups != 0 {
				t.Errorf("%s: simulated nothing but reports setup %v and %d relation-cache lookups",
					r.ID, r.Setup, lookups)
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
	o.run = &runCtx{rels: newRelCache(), reads: loads(genKey{500, 1})}
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
	if len(heldKeys(o.run.rels.images)) != 1 {
		t.Errorf("cache holds %d entries, want 1", len(heldKeys(o.run.rels.images)))
	}
	for i, s := range secs {
		if s != secs[0] {
			t.Errorf("concurrent attach %d measured %v, want %v", i, s, secs[0])
		}
	}
}

// TestTuplesGeneratedOncePerCache: within one cache every load of a Wisconsin
// relation reads the one slice generated for it, concurrent first requests
// included; another cache (another suite run) generates its own, and without a
// run context every call generates afresh.
func TestTuplesGeneratedOncePerCache(t *testing.T) {
	reads := loads(genKey{500, 1})
	c := &runCtx{rels: newRelCache(), reads: reads}
	c.rels.declare(reads)
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
	if n := len(heldKeys(c.rels.tuples)); n != 1 {
		t.Errorf("cache holds %d generated relations, want 1", n)
	}
	other := &runCtx{rels: newRelCache(), reads: reads}
	other.rels.declare(reads)
	if &other.tuples(500, 1)[0] == &got[0][0] {
		t.Error("two caches hand out one generated relation")
	}
	var none *runCtx
	if &none.tuples(500, 1)[0] == &none.tuples(500, 1)[0] {
		t.Error("without a run context two calls returned one generated relation")
	}
}

// heldKeys returns the keys m holds.
func heldKeys[K comparable, V any](m *onceMap[K, V]) []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Collect(maps.Keys(m.entries))
}

// cacheRecorder wraps experiments so that, as each returns, it records the
// images and the generated rows the suite's relation cache holds. Every image
// an experiment read is still there at that moment: the suite frees it only
// after the experiment returns. So are the rows it loaded, unless it gave its
// loads back early (runCtx.built), and then it imaged them.
type cacheRecorder struct {
	mu     sync.Mutex
	cache  *relCache
	images map[imageKey]bool
	tuples map[genKey]bool
}

func newCacheRecorder() *cacheRecorder {
	return &cacheRecorder{images: map[imageKey]bool{}, tuples: map[genKey]bool{}}
}

// relations returns the generated relations recorded: those the recorded
// images were built from, and those recorded as rows.
func (r *cacheRecorder) relations() map[genKey]bool {
	out := maps.Clone(r.tuples)
	for k := range r.images {
		out[k.version().genKey] = true
	}
	return out
}

func (r *cacheRecorder) wrap(exps []Experiment) []Experiment {
	out := slices.Clone(exps)
	for i, e := range out {
		out[i].Run = func(o Options) *Table {
			tbl := e.Run(o)
			r.mu.Lock()
			defer r.mu.Unlock()
			r.cache = o.run.rels
			for _, k := range heldKeys(o.run.rels.images) {
				r.images[k] = true
			}
			for _, k := range heldKeys(o.run.rels.tuples) {
				r.tuples[k] = true
			}
			return tbl
		}
	}
	return out
}

// left reports what the suite's relation cache still holds.
func (r *cacheRecorder) left() (claims, tuples, images int) {
	c := r.cache
	c.mu.Lock()
	claims = len(c.loads) + len(c.claims)
	c.mu.Unlock()
	return claims, len(heldKeys(c.tuples)), len(heldKeys(c.images))
}

// TestEveryRelationBuiltOnce: the suite generates a Wisconsin relation once
// and loads each version of it once, however many machines hold it, and frees
// them when no phase may read them any more. Over the whole registry, where at
// tinyOptions the figure and table relations coincide, every build is of a
// distinct relation and every generation of a distinct Wisconsin relation —
// serially, and in reverse on eight workers — and the cache is empty when
// RunSuite returns. Tables 1-3 at one size need five Gamma relations (Aheap
// for all three tables, Aidx for table1 and table3, Table 2's Bprime, B and
// C) and four Teradata hash files (A under both names, Bprime, B, C),
// generated from four Wisconsin relations; at Quick(), which runs them on two
// workers beside the figures and at sizes no other experiment reads, they
// build and generate that many per size. scale100 loads each of its relations
// onto the one machine that reads it: at Quick() it builds no image and
// generates each relation it declares once.
func TestEveryRelationBuiltOnce(t *testing.T) {
	for _, run := range []struct {
		name string
		run  func() suiteRun
	}{{"serial", serialRun}, {"reversed on 8 workers", parallelRun}} {
		t.Run(run.name, func(t *testing.T) {
			rec := run.run().rec
			var misses, generated int64
			for _, r := range run.run().reports {
				misses += r.ImageMisses
				generated += r.Generated
			}
			if misses != int64(len(rec.images)) {
				t.Errorf("%d builds for %d distinct relations", misses, len(rec.images))
			}
			if rels := rec.relations(); generated != int64(len(rels)) {
				t.Errorf("%d generations for %d distinct Wisconsin relations", generated, len(rels))
			}
			for k := range rec.images {
				// Two keys that differ only in what cannot shape storage
				// would be one relation built twice.
				if k.rel.name != "" {
					t.Errorf("image key %+v carries a relation name", k.rel)
				}
			}
			if claims, tuples, images := rec.left(); claims+tuples+images != 0 {
				t.Errorf("after RunSuite the cache holds %d claims, %d generated relations and %d images, want none",
					claims, tuples, images)
			}
		})
	}
	t.Run("Tables 1-3 at Quick", func(t *testing.T) {
		q := quick(t)
		tables := map[string]bool{"table1": true, "table2": true, "table3": true}
		reads := map[genKey]bool{}
		var misses, lookups, generated int64
		for _, r := range q.reports {
			if !tables[r.ID] {
				continue
			}
			e, _ := Lookup(r.ID)
			for _, k := range e.reads(Quick()) {
				reads[k.genKey] = true
			}
			misses += r.ImageMisses
			lookups += r.ImageHits + r.ImageMisses
			generated += r.Generated
		}
		// The images are told apart from the figures' by their key alone.
		for _, e := range Experiments() {
			if tables[e.ID] {
				continue
			}
			for _, k := range e.reads(Quick()) {
				if reads[k.genKey] {
					t.Fatalf("%s also reads %+v at Quick(), which the tables read: its images would count as theirs", e.ID, k)
				}
			}
		}
		gamma, tera := 0, 0
		for k := range q.rec.images {
			switch {
			case !reads[genKey{k.rel.n, k.rel.seed}]:
			case k.tera:
				tera++
			default:
				gamma++
			}
		}
		sizes := len(Quick().Sizes)
		if gamma != 5*sizes || tera != 4*sizes || misses != int64(9*sizes) {
			t.Errorf("built %d Gamma and %d Teradata relation images (%d misses) at %d sizes, want 5 and 4 per size",
				gamma, tera, misses, sizes)
		}
		if generated != int64(4*sizes) {
			t.Errorf("generated %d Wisconsin relations at %d sizes, want 4 per size", generated, sizes)
		}
		// 2+4+2 Gamma relations attached per size, and 2+5+2 Teradata ones.
		if lookups != int64(17*sizes) {
			t.Errorf("%d relations attached at %d sizes, want 17 per size", lookups, sizes)
		}
	})
	t.Run("scale100 at Quick", func(t *testing.T) {
		q := quick(t)
		e, _ := Lookup("scale100")
		declared := map[genKey]bool{}
		for _, k := range e.reads(Quick()) {
			declared[k.genKey] = true
		}
		// Its generation count is its own: no sibling reads its relations.
		for _, other := range Experiments() {
			if other.ID == e.ID {
				continue
			}
			for _, k := range other.reads(Quick()) {
				if declared[k.genKey] {
					t.Fatalf("%s also reads %+v at Quick(), which scale100 reads", other.ID, k)
				}
			}
		}
		for _, r := range q.reports {
			if r.ID != e.ID {
				continue
			}
			if lookups := r.ImageHits + r.ImageMisses; lookups != 0 {
				t.Errorf("scale100 made %d image-cache lookups (%d misses), want none", lookups, r.ImageMisses)
			}
			if r.Generated != int64(len(declared)) {
				t.Errorf("scale100 generated %d Wisconsin relations, want each of its %d once", r.Generated, len(declared))
			}
		}
		for k := range declared {
			if !q.rec.tuples[k] {
				t.Errorf("scale100's rows of %+v were never held by the suite's cache", k)
			}
		}
	})
}
