package bench

import (
	"bytes"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
)

// sharingExperiments plot at least one data point another experiment plots.
var sharingExperiments = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"hybrid", "bitvector",
}

// TestSharedMatchesUnshared is the acceptance contract of the point cache:
// an experiment prints the same table whether it simulates every point
// itself (alone in its own RunSuite, where nothing precedes it) or is handed
// some by siblings inside the full suite — serially and on four workers,
// where who simulates is first-come (run under -race).
func TestSharedMatchesUnshared(t *testing.T) {
	o := tinyOptions()
	o.MaxProcs = 8 // so Figure 10 reaches the 8-processor point bitvector plots
	alone := map[string][]byte{}
	for _, id := range sharingExperiments {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		r := RunSuite([]Experiment{e}, o, 1)[0]
		if r.SharedPoints != 0 || r.Events == 0 {
			t.Errorf("%s alone: %d shared points, %d events; a lone experiment simulates all it plots", id, r.SharedPoints, r.Events)
		}
		alone[id] = renderTable(r.Table)
	}
	var events [2]int64
	for wi, workers := range []int{1, 4} {
		var sharedPts int64
		for _, r := range RunSuite(Experiments(), o, workers) {
			events[wi] += r.Events
			sharedPts += r.SharedPoints
			want, sharing := alone[r.ID]
			if !sharing {
				if r.SharedPoints != 0 {
					t.Errorf("workers=%d: %s took %d shared points but is not listed in sharingExperiments", workers, r.ID, r.SharedPoints)
				}
				continue
			}
			if got := renderTable(r.Table); !bytes.Equal(got, want) {
				t.Errorf("workers=%d: %s in the suite differs from %s alone:\n--- suite ---\n%s--- alone ---\n%s",
					workers, r.ID, r.ID, got, want)
			}
		}
		// 8+8+5+5 select points, 2x24 join points, 5 page sizes, 8 memory
		// ratios, bitvector's unfiltered run.
		if want := int64(8 + 8 + 5 + 5 + 24 + 24 + 5 + 8 + 1); sharedPts != want {
			t.Errorf("workers=%d: suite shared %d points, want %d", workers, sharedPts, want)
		}
	}
	if events[0] != events[1] {
		t.Errorf("suite event totals depend on the schedule: %d serial, %d on four workers", events[0], events[1])
	}
}

// TestPointKeysIsolate: everything that can change a simulated number changes
// the key, equal inputs give equal keys, and a point cache lives and dies with
// its RunSuite.
func TestPointKeysIsolate(t *testing.T) {
	o := tinyOptions().windowed()
	bigger := o
	bigger.FigureTuples *= 2
	wider := o
	wider.MaxProcs++
	keys := map[pointKey]string{}
	add := func(what string, k pointKey) {
		t.Helper()
		if prev, dup := keys[k]; dup {
			t.Errorf("%s and %s share a key: %+v", prev, what, k)
		}
		keys[k] = what
	}
	add("base", o.point("joinABprime", 1, core.Remote, rel.Unique1))
	add("other measurement", o.point("memJoin", 1, core.Remote, rel.Unique1))
	add("other mode", o.point("joinABprime", 1, core.Local, rel.Unique1))
	add("other attribute", o.point("joinABprime", 1, core.Remote, rel.Unique2))
	add("args 1,12", o.point("fig", 1, 12))
	add("args 11,2", o.point("fig", 11, 2))
	add("ratio 0.5", o.point("memJoin", core.Remote, core.SimpleHash, 0.5))
	add("ratio 0.6", o.point("memJoin", core.Remote, core.SimpleHash, 0.6))
	add("hybrid 0.5", o.point("memJoin", core.Remote, core.HybridHash, 0.5))
	add("2 KB pages", o.withPage(2048).point("joinABprime", 1, core.Remote, rel.Unique1))
	add("8 KB pages", o.withPage(8192).point("joinABprime", 1, core.Remote, rel.Unique1))
	add("twice the tuples", bigger.point("joinABprime", 1, core.Remote, rel.Unique1))
	add("one more processor", wider.point("joinABprime", 1, core.Remote, rel.Unique1))
	for _, gen := range config.Generations()[1:] { // [0] is the default the base key has
		prm := gen.Params()
		po := o
		po.Params = &prm
		add("generation "+gen.Name, po.point("joinABprime", 1, core.Remote, rel.Unique1))
	}

	again := tinyOptions().windowed()
	again.Kernel, again.KernelWorkers = "partitioned", 4 // cannot reach a table, so not in the key
	if k := again.point("joinABprime", 1, core.Remote, rel.Unique1); keys[k] != "base" {
		t.Errorf("equal options rendered a different key: %+v", k)
	}
	if k := o.withPage(o.params().PageBytes).point("joinABprime", 1, core.Remote, rel.Unique1); keys[k] != "base" {
		t.Errorf("explicit default page size rendered a different key: %+v", k)
	}
	// One machine model: the windowed hint picks a host kernel, so a
	// serialized request for the point is the same point.
	if k := o.serialized().point("joinABprime", 1, core.Remote, rel.Unique1); keys[k] != "base" {
		t.Errorf("a serialized request rendered a different key than a windowed one: %+v", k)
	}

	seconds, _ := Lookup("fig1")
	speedup, _ := Lookup("fig2")
	for run := 0; run < 2; run++ {
		if r := RunSuite([]Experiment{speedup}, tinyOptions(), 1)[0]; r.SharedPoints != 0 || r.Events == 0 {
			t.Errorf("run %d: fig2 alone took %d shared points and simulated %d events: it saw another suite's cache", run, r.SharedPoints, r.Events)
		}
	}
	rs := RunSuite([]Experiment{seconds, speedup}, tinyOptions(), 1)
	if got, want := rs[1].SharedPoints, int64(tinyOptions().MaxProcs); got != want || rs[1].Events != 0 {
		t.Errorf("fig2 after fig1: %d shared points (want %d), %d events (want 0)", got, want, rs[1].Events)
	}
}
