package bench

import (
	"context"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"
)

// Report is the outcome of one experiment in a suite run.
type Report struct {
	ID    string
	Title string
	Table *Table
	// Wall is the wall time of the experiment's Run calls, summed over its
	// phases (see RunSuite).
	Wall time.Duration
	// Events counts the simulated events of every machine the experiment
	// ran. A data point two experiments plot is simulated by whichever asks
	// first and charged — events, wall time, setup — to that one, so
	// the suite total is schedule-independent while the per-experiment split
	// under workers > 1 is first-come.
	Events int64
	// Setup is the cumulative machine-build wall time (relation-image
	// builds, attaches, database loads) across the experiment's data points.
	// Points can run in parallel, so Setup may exceed Wall.
	Setup time.Duration
	// ImageHits / ImageMisses count relation-image cache lookups, one per
	// relation per machine built: a miss loaded the relation and imaged it
	// before attaching it, a hit attached an image the suite already had.
	ImageHits   int64
	ImageMisses int64
	// Generated counts the Wisconsin relations the experiment generated.
	Generated int64
	// SharedPoints counts the data points the experiment was handed from the
	// suite's point cache instead of simulating them (see shared.go).
	SharedPoints int64

	harnessReport
}

// EventsPerSec returns the simulated-event throughput of the run.
func (r Report) EventsPerSec() float64 {
	s := r.Wall.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Events) / s
}

// QueryWall is the experiment's wall time net of setup, clamped at zero
// (parallel points overlap setup with queries).
func (r Report) QueryWall() time.Duration {
	q := r.Wall - r.Setup
	if q < 0 {
		q = 0
	}
	return q
}

// RunSuite runs the experiments, fanning their phases — and, through parMap,
// the phases' independent data points — across at most workers goroutines.
// Reports come back one per experiment, in the order the experiments were
// given, and every Table is identical to a serial run: each data point is its
// own single-threaded simulation with a fixed seed, so scheduling cannot
// reach the results. workers <= 1 runs everything on the calling goroutine.
//
// A phase is one call of an experiment's Run. An experiment that plots a
// column pair per table size (Tables 1-3) runs a phase per size of o.Sizes,
// with Sizes narrowed to that size, and its report joins the phases' columns
// in size order and sums their wall times and counts; every other experiment
// is one phase. Phases start in ascending order of the largest relation they
// declare (see runOrder), so the work that reads one size's relations runs
// back to back. A phase declares each relation version it reads as a load or
// an attach (see read), and gives its loads back once it has built its
// machines (runCtx.built, which paperRows calls) or else when it returns.
func RunSuite(exps []Experiment, o Options, workers int) []Report {
	// One semaphore, one relation cache and one data-point cache serve the
	// whole suite, always this run's own: machines that hold the same
	// relation (Tables 1-3 at one size, the figure pairs) attach one image
	// of it, and an experiment that replots a sibling's sweep reads the
	// sibling's measurements. A relation's rows leave the cache when no
	// phase that loads it has still to build, and a version's images when
	// the last phase that declares it returns, so each is still generated
	// and built once and none outlives its readers.
	phases := suitePhases(exps, o)
	rels := newRelCache()
	for _, p := range phases {
		rels.declare(p.reads)
	}
	points := newOnceMap[pointKey, any]()
	var sem chan struct{}
	if workers > 1 {
		sem = make(chan struct{}, workers)
	}
	done := make([]Report, len(phases))
	run := func(i int) {
		p, e := phases[i], exps[phases[i].exp]
		c := &runCtx{sem: sem, rels: rels, points: points, exp: e.ID, reads: p.reads,
			built: sync.OnceFunc(func() { rels.release(p.reads, true) })}
		oo := p.o
		oo.run = c
		start := time.Now()
		var tbl *Table
		// Label the experiment's goroutine (and every worker it spawns) so
		// CPU profiles break down per experiment: `gammabench -cpuprofile`
		// plus `go tool pprof -tags` attributes host time to the experiment
		// that paid it.
		pprof.Do(context.Background(), pprof.Labels("experiment", e.ID), func(context.Context) {
			tbl = e.Run(oo)
		})
		done[i] = Report{ID: e.ID, Title: e.Title, Table: tbl,
			Wall: time.Since(start), Events: c.events.Load(),
			Setup: time.Duration(c.setup.Load()), ImageHits: c.imgHits.Load(), ImageMisses: c.imgMisses.Load(),
			Generated: c.generated.Load(), SharedPoints: c.sharedPts.Load()}
		c.built()
		rels.release(p.reads, false)
	}
	var wg sync.WaitGroup
	size := 0 // the largest relation size a serial phase has declared
	for _, i := range runOrder(phases) {
		if sem == nil {
			// The first phase of a larger size starts after a collection:
			// the smaller sizes' relations are garbage by now, and left to
			// the pacer they would raise the heap this phase grows from.
			if n := phases[i].size(); n > size {
				if size > 0 {
					runtime.GC()
				}
				size = n
			}
			run(i)
			continue
		}
		// Blocking acquire: phases enter in order as slots free up. Each
		// in-flight phase holds one slot; its inner parMap calls borrow
		// further free slots without ever waiting for one.
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			run(i)
		}(i)
	}
	wg.Wait()
	reports := make([]Report, len(exps))
	for i, p := range phases {
		if i > 0 && phases[i-1].exp == p.exp {
			reports[p.exp].add(done[i])
		} else {
			reports[p.exp] = done[i]
		}
	}
	return reports
}

// add folds the report of an experiment's next phase into r: its columns
// join r's table, and its wall time and counts add to r's.
func (r *Report) add(s Report) {
	r.Table = joinSizes(r.Table, s.Table)
	r.Wall += s.Wall
	r.Events += s.Events
	r.Setup += s.Setup
	r.ImageHits += s.ImageHits
	r.ImageMisses += s.ImageMisses
	r.Generated += s.Generated
	r.SharedPoints += s.SharedPoints
}

// phase is one Run call of a suite run: the experiment (its index in the
// suite), the options it runs under and the relations it declares there.
type phase struct {
	exp   int
	o     Options
	reads []read
}

// size is the cardinality of the largest relation the phase declares.
func (p phase) size() int {
	n := 0
	for _, r := range p.reads {
		n = max(n, r.n)
	}
	return n
}

// suitePhases lists the phases of exps in the order the experiments were
// given: a bySize experiment with more than one size runs a phase per size,
// in o.Sizes order; every other experiment is one phase.
func suitePhases(exps []Experiment, o Options) []phase {
	var out []phase
	for i, e := range exps {
		parts := [][]int{o.Sizes}
		if e.bySize && len(o.Sizes) > 1 {
			parts = parts[:0]
			for j := range o.Sizes {
				parts = append(parts, o.Sizes[j:j+1:j+1])
			}
		}
		for _, sizes := range parts {
			p := phase{exp: i, o: o}
			p.o.Sizes = sizes
			if e.reads != nil {
				p.reads = e.reads(p.o)
			}
			out = append(out, p)
		}
	}
	return out
}

// runOrder returns the indices of phases in the order the suite starts them:
// ascending by the largest relation each declares, by n and then seed, so
// that the phases reading one size's relations run back to back and those
// relations are freed before a larger size's load. A phase that declares
// nothing sorts with the phase given before it, and ties keep the order the
// phases were given.
func runOrder(phases []phase) []int {
	largest := make([]genKey, len(phases))
	order := make([]int, len(phases))
	for i, p := range phases {
		order[i] = i
		switch {
		case len(p.reads) > 0:
			largest[i] = slices.MaxFunc(p.reads, func(a, b read) int { return a.cmp(b.genKey) }).genKey
		case i > 0:
			largest[i] = largest[i-1]
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return largest[a].cmp(largest[b]) })
	return order
}

// parMap evaluates fn(0) .. fn(n-1) and returns the results in index order.
// Under a parallel Options it fans calls across free worker slots and runs
// inline when none is free — a caller already holding a slot (RunSuite's
// experiment goroutine) therefore can never deadlock, and a serial Options
// degenerates to a plain loop. Each fn must build its own simulator; points
// share nothing, which is what makes the fan-out order-independent.
func parMap[T any](o Options, n int, fn func(i int) T) []T {
	out := make([]T, n)
	sem := o.run.slots()
	if sem == nil || n <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var wg sync.WaitGroup
	for i := range out {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				out[i] = fn(i)
			}(i)
		default:
			out[i] = fn(i)
		}
	}
	wg.Wait()
	return out
}
