package bench

import (
	"bytes"
	"slices"
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
// some by siblings inside the whole registry, serially and in reverse on
// eight workers, where who simulates is first-come (run under -race). An
// experiment outside sharingExperiments is handed nothing and simulates as
// many events in the suite as alone, and the schedule moves neither the
// suite's shared points nor its events.
func TestSharedMatchesUnshared(t *testing.T) {
	alone := map[string]Report{}
	for id, run := range aloneRun() {
		r := run.reports[0]
		if r.SharedPoints != 0 || r.Events == 0 {
			t.Errorf("%s alone: %d shared points, %d events; a lone experiment simulates all it plots", id, r.SharedPoints, r.Events)
		}
		alone[id] = r
	}
	var events [2]int64
	for i, run := range []suiteRun{serialRun(), parallelRun()} {
		how := []string{"serial", "parallel"}[i]
		var sharedPts int64
		for _, r := range run.reports {
			events[i] += r.Events
			sharedPts += r.SharedPoints
			want := renderTable(alone[r.ID].Table)
			if got := renderTable(r.Table); !bytes.Equal(got, want) {
				t.Errorf("%s: %s in the suite differs from %s alone:\n--- suite ---\n%s--- alone ---\n%s", how, r.ID, r.ID, got, want)
			}
			if !slices.Contains(sharingExperiments, r.ID) && (r.SharedPoints != 0 || r.Events != alone[r.ID].Events) {
				t.Errorf("%s: %s took %d shared points and simulated %d events, %d alone, but is not listed in sharingExperiments",
					how, r.ID, r.SharedPoints, r.Events, alone[r.ID].Events)
			}
		}
		// Per processor count p: the two selection sweeps, and Local, Remote
		// and Allnodes of the two join sweeps; 5 page sizes for each of the
		// three page-size sweeps; Figure 13's memory ratios; and bitvector's
		// unfiltered run, Figure 10's 8-processor Remote point.
		p := int64(tinyOptions().MaxProcs)
		if want := 2*p + 2*3*p + 3*5 + int64(len(fig13Ratios)) + 1; sharedPts != want {
			t.Errorf("%s: suite shared %d points, want %d", how, sharedPts, want)
		}
	}
	if events[0] != events[1] {
		t.Errorf("suite event totals depend on the schedule: %d serial, %d parallel", events[0], events[1])
	}
}

// TestPointKeysIsolate: everything that can change a simulated number changes
// the key, equal inputs give equal keys, and a point cache lives and dies with
// its RunSuite.
func TestPointKeysIsolate(t *testing.T) {
	o := tinyOptions()
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
	// A machine parameter that is not the page size.
	faster := config.Default()
	faster.CPU.MIPS *= 2
	fasterCPUs := o
	fasterCPUs.Params = &faster
	add("twice the MIPS", fasterCPUs.point("joinABprime", 1, core.Remote, rel.Unique1))

	again := tinyOptions()
	again.Kernel, again.KernelWorkers = "partitioned", 4 // ignored (harness.go), so not in the key
	if k := again.point("joinABprime", 1, core.Remote, rel.Unique1); keys[k] != "base" {
		t.Errorf("equal options rendered a different key: %+v", k)
	}
	if k := o.withPage(o.params().PageBytes).point("joinABprime", 1, core.Remote, rel.Unique1); keys[k] != "base" {
		t.Errorf("explicit default page size rendered a different key: %+v", k)
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
