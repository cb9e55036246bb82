package bench

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"
)

// Report is the outcome of one experiment in a suite run.
type Report struct {
	ID    string
	Title string
	Table *Table
	Wall  time.Duration
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

// RunSuite runs the experiments, fanning them — and, through parMap, their
// independent data points — across at most workers goroutines. Reports come
// back in the order the experiments were given, and every Table is identical
// to a serial run: each data point is its own single-threaded simulation
// with a fixed seed, so scheduling cannot reach the results. workers <= 1
// runs everything on the calling goroutine.
func RunSuite(exps []Experiment, o Options, workers int) []Report {
	return runSuite(exps, o, workers, newRelCache)
}

// runSuite is RunSuite making its relation caches with newRels, through which
// the caches' tests see every one of them.
func runSuite(exps []Experiment, o Options, workers int, newRels func() *relCache) []Report {
	// One semaphore, one relation cache and one data-point cache serve the
	// whole suite, always this run's own: machines that hold the same
	// relation (Tables 1-3 at one size, the figure pairs) attach one image
	// of it, and an experiment that replots a sibling's sweep reads the
	// sibling's measurements. An experiment that owns its relations gets a
	// relation cache of its own, referenced only by its runCtx, so its
	// relations become garbage as soon as it returns.
	suite := newRels()
	points := newOnceMap[pointKey, any]()
	var sem chan struct{}
	if workers > 1 {
		sem = make(chan struct{}, workers)
	}
	reports := make([]Report, len(exps))
	run := func(i int, e Experiment) {
		c := &runCtx{sem: sem, rels: suite, points: points}
		if e.ownRelations {
			c.rels = newRels()
		}
		oo := o
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
		reports[i] = Report{ID: e.ID, Title: e.Title, Table: tbl,
			Wall: time.Since(start), Events: c.events.Load(),
			Setup: time.Duration(c.setup.Load()), ImageHits: c.imgHits.Load(), ImageMisses: c.imgMisses.Load(),
			SharedPoints: c.sharedPts.Load()}
	}
	if sem == nil {
		for i, e := range exps {
			run(i, e)
		}
		return reports
	}
	var wg sync.WaitGroup
	for i, e := range exps {
		// Blocking acquire: experiments enter in order as slots free up.
		// Each in-flight experiment holds one slot; its inner parMap calls
		// borrow further free slots without ever waiting for one.
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			defer func() { <-sem }()
			run(i, e)
		}(i, e)
	}
	wg.Wait()
	return reports
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
