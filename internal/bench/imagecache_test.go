package bench

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
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
	// These revisit a relation by construction, whatever the Options: the
	// fault conditions of a degraded row, hybrid's two algorithms per ratio,
	// multiuser's private/shared pairs, fig13's memory ratios, table1's
	// sizes (Aheap and Aidx are one Teradata hash file), and so on. (Others —
	// scaleup's per-processor databases — only hit via relations earlier
	// experiments built, or never.)
	intrinsicReuse := map[string]bool{
		"bitvector": true, "degraded": true, "fig13": true, "hybrid": true,
		"multiuser": true, "placement": true, "recovery": true, "pagesize-default": true,
		"table1": true, "table2": true, "table3": true,
		// kernelscale's real-query probes run three kernel configs per
		// generation against one probe relation each.
		"kernelscale": true,
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
	o.run = &runCtx{images: newImageCache()}
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
	if o.run.images.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", o.run.images.len())
	}
	for i, s := range secs {
		if s != secs[0] {
			t.Errorf("concurrent attach %d measured %v, want %v", i, s, secs[0])
		}
	}
}

// TestEveryRelationBuiltOnce: the suite loads a relation once however many
// machines hold it. Tables 1-3 at one size need five Gamma relations (Aheap
// and Aidx for all three tables, Table 2's Bprime, B and C) and four Teradata
// hash files (A under both names, Bprime, B, C), serially and on four
// workers; and over the whole registry every build is of a distinct relation.
func TestEveryRelationBuiltOnce(t *testing.T) {
	var tables []Experiment
	for _, id := range []string{"table1", "table2", "table3"} {
		e, _ := Lookup(id)
		tables = append(tables, e)
	}
	o := tinyOptions()
	o.Sizes = []int{10000}
	for _, workers := range []int{1, 4} {
		images := newImageCache()
		var misses, lookups int64
		for _, r := range runSuite(tables, o, workers, images) {
			misses += r.ImageMisses
			lookups += r.ImageHits + r.ImageMisses
		}
		gamma, tera := 0, 0
		for k := range images.entries {
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
	images := newImageCache()
	var misses int64
	for _, r := range runSuite(Experiments(), tinyOptions(), 2, images) {
		misses += r.ImageMisses
	}
	if misses != int64(images.len()) {
		t.Errorf("%d builds for %d distinct relations", misses, images.len())
	}
	// Two keys that differ only in what cannot shape storage would be one
	// relation built twice.
	for k := range images.entries {
		if k.rel.name != "" {
			t.Errorf("image key %+v carries a relation name", k.rel)
		}
	}
}
