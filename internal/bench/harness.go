package bench

import "gamma/internal/sim"

// The frozen benchmark harness (benchmark/) still sets and reads parts of the
// kernel selection surface that is gone, and pins an experiment id that is
// retired. This file keeps exactly those, inert, each with the harness line
// that reads it. Delete it when benchmark/ may be edited.

// harnessOptions are accepted and ignored: every simulation runs on one event
// calendar (benchmark/child.go:158–162).
type harnessOptions struct {
	Kernel        string
	KernelWorkers int
}

// harnessReport stays zero: no simulation runs windows
// (benchmark/child.go:245).
type harnessReport struct {
	Windows sim.WindowStats
}

// retired are the ids the harness pins (benchmark/workloads.go:49–53, 64–65)
// that no experiment answers to any more, with why. Lookup resolves them to a
// one-row tombstone table; Experiments, and so -list and the golden, never
// show them (benchmark/child.go:180, benchmark/benchmark_test.go:243).
var retired = map[string]string{
	"kernelscale": "the partitioned kernel it measured is gone; every simulation runs on one event calendar",
	"degraded":    "it ran the crash, chained-backup and failover path availability runs, with no claim of its own",
	"scaleup":     "its 1-8 processor range is what the fig2 and fig11 near-linear facts check; scale100 measures scaleup past it",
	"netgen":      "the hardware generations it swept are gone; its finding, a serialized control path binding, is scale100's initiation wall",
}

// tombstone returns the experiment standing in for a retired id.
func tombstone(id string) (Experiment, bool) {
	why, ok := retired[id]
	if !ok {
		return Experiment{}, false
	}
	return Experiment{ID: id, Title: "retired", Run: func(Options) *Table {
		return &Table{ID: id, Title: "retired: " + why, Rows: []Row{{Label: "retired"}}}
	}}, true
}
