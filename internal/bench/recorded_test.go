package bench

import (
	"slices"
	"sync"
	"testing"
)

// The recorded runs. A test that checks what the evaluation prints, or how a
// suite run got there, reads one of these instead of simulating its own. Each
// simulates once per test binary, on first use, so -short and -run filters
// still skip what no selected test reads. They are the registry at
// tinyOptions four ways — with no run context, each experiment in a RunSuite
// of its own on eight workers, the whole registry serially, and the whole
// registry in reverse on eight workers — and the registry at Quick(), the
// sizes the digests pin.

// suiteRun is one recorded RunSuite call: its reports, in the order of the
// experiments it was given, and what the relation cache held as each
// experiment returned.
type suiteRun struct {
	reports []Report
	rec     *cacheRecorder
}

func recordSuite(exps []Experiment, o Options, workers int) suiteRun {
	rec := newCacheRecorder()
	return suiteRun{RunSuite(rec.wrap(exps), o, workers), rec}
}

// tables returns the run's tables by experiment id.
func (s suiteRun) tables() map[string]*Table {
	out := map[string]*Table{}
	for _, r := range s.reports {
		out[r.ID] = r.Table
	}
	return out
}

var (
	// uncachedRun renders every registry row's table with no run context,
	// the reference path: every machine loads its database from scratch and
	// every experiment simulates every point it plots.
	uncachedRun = sync.OnceValue(func() map[string][]byte {
		out := map[string][]byte{}
		for _, row := range registry {
			if e, ok := Lookup(row.id); ok {
				out[row.id] = renderTable(e.Run(tinyOptions()))
			}
		}
		return out
	})
	// aloneRun runs each experiment in a RunSuite of its own, where no
	// sibling builds a relation or simulates a point for it. The experiment
	// holds one of eight slots, so every parMap it calls finds seven free
	// and runs its points concurrently.
	aloneRun = sync.OnceValue(func() map[string]suiteRun {
		out := map[string]suiteRun{}
		for _, e := range Experiments() {
			out[e.ID] = recordSuite([]Experiment{e}, tinyOptions(), 8)
		}
		return out
	})
	serialRun   = sync.OnceValue(func() suiteRun { return recordSuite(Experiments(), tinyOptions(), 1) })
	parallelRun = sync.OnceValue(func() suiteRun {
		exps := Experiments()
		slices.Reverse(exps)
		return recordSuite(exps, tinyOptions(), 8)
	})
	quickRun = sync.OnceValue(func() suiteRun { return recordSuite(Experiments(), Quick(), 2) })
)

// quick returns the Quick() run, skipping the test under -short.
func quick(t *testing.T) suiteRun {
	t.Helper()
	if testing.Short() {
		t.Skip("reads the registry's run at Quick() sizes")
	}
	return quickRun()
}
