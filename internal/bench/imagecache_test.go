package bench

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// renderTable renders one table to bytes.
func renderTable(tbl *Table) []byte {
	var buf bytes.Buffer
	tbl.Render(&buf)
	return buf.Bytes()
}

// TestCachedTablesMatchUncached is the acceptance contract of the image
// cache: for every experiment, the table produced with cached machine images
// (RunSuite always attaches a cache) must be byte-identical to the table
// produced with no run context, where every data point loads its database
// from scratch — both serially and under -parallel workers.
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

// TestSuiteReportsCacheHits: experiments that query one image from several
// data points must restore it from the cache after the first build, every
// experiment records its setup/query wall split, the suite as a whole
// reuses more images than it builds, and a sweep two experiments plot is
// simulated by exactly one of them.
func TestSuiteReportsCacheHits(t *testing.T) {
	// These revisit an image by construction, whatever the Options: the
	// fault conditions of a degraded row, hybrid's two algorithms per ratio,
	// multiuser's private/shared pairs, fig13's memory ratios, and so on.
	// (Others — scaleup's per-processor databases, table2's one machine per
	// size — only hit via images earlier experiments built, or never.)
	intrinsicReuse := map[string]bool{
		"bitvector": true, "degraded": true, "fig13": true, "hybrid": true,
		"multiuser": true, "placement": true, "recovery": true, "pagesize-default": true,
		// kernelscale's real-query probes run three kernel configs per
		// generation against one probe image each.
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
			t.Errorf("%s: %d image misses but no hits — cache never reused an image",
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
		t.Errorf("suite-wide image cache: %d hits vs %d misses; most data points should restore", hits, misses)
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
	// one machine restore each.
	f13, hyb := byID["fig13"], byID["hybrid"]
	if got := f13.SharedPoints + hyb.SharedPoints; got != int64(len(fig13Ratios)) {
		t.Errorf("fig13 + hybrid took %d shared points, want %d (the Simple/Remote column)", got, len(fig13Ratios))
	}
	if got := f13.ImageHits + f13.ImageMisses + hyb.ImageHits + hyb.ImageMisses; got != int64(3*len(fig13Ratios)) {
		t.Errorf("fig13 + hybrid built %d machines, want %d memory points", got, 3*len(fig13Ratios))
	}
}

// TestImageCacheSingleflight hammers one key from many goroutines: the build
// function must run exactly once, exactly one caller observes the miss, and
// every restored machine answers queries identically (run under -race).
func TestImageCacheSingleflight(t *testing.T) {
	o := tinyOptions()
	o.run = &runCtx{images: newImageCache()}
	var builds atomic.Int64
	key := imageKey{nDisk: 2, nDiskless: 2, prm: o.params(), rels: relsKey(gammaRels(500, 1))}
	var wg sync.WaitGroup
	hits := make([]bool, 16)
	secs := make([]float64, 16)
	for i := range hits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, hit := o.run.images.get(key, func() *core.Snapshot {
				builds.Add(1)
				uncached := o
				uncached.run = nil
				return uncached.gammaMachine(2, 2, false, gammaRels(500, 1)).Snapshot()
			})
			hits[i] = hit
			// Restore concurrently and query: exercises shared frozen pages.
			g := setupFrom(core.RestoreMachine(sim.New(), snap))
			secs[i] = g.selectSecs(core.SelectQuery{
				Scan: core.ScanSpec{Rel: g.heap, Pred: pct(rel.Unique2, 500, 10), Path: core.PathHeap},
			})
		}(i)
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Errorf("build ran %d times, want 1", b)
	}
	misses := 0
	for _, h := range hits {
		if !h {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d goroutines reported a miss, want exactly 1", misses)
	}
	if o.run.images.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", o.run.images.len())
	}
	for i, s := range secs {
		if s != secs[0] {
			t.Errorf("concurrent restore %d measured %v, want %v", i, s, secs[0])
		}
	}
}
