package bench

import "sort"

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Table
}

// registry is every experiment the package can run. windowed is a hint to
// the host kernel and selects no model: it marks the experiments whose Gamma
// machines are safe to run in positive-lookahead parallel windows —
// single-query-at-a-time workloads with no fault injection, where every
// cross-node interaction goes through the nose latency floor. An experiment
// prints the same table with the hint flipped
// (TestKernelEquivalenceAcrossLookahead). Machines that must stay serialized
// inside a windowed experiment (Teradata references) opt back out
// individually.
var registry = []struct {
	id, title string
	windowed  bool
	run       func(o Options) *Table
}{
	{"table1", "Selection queries (Table 1)", true, runTable1},
	{"table2", "Join queries (Table 2)", false, runTable2},
	{"table3", "Update queries (Table 3)", false, runTable3},

	{"fig1", "Non-indexed selections vs processors (Figure 1)", true, fig1.table},
	{"fig2", "Speedup of non-indexed selections (Figure 2)", true, fig2.table},
	{"fig3", "Indexed selections vs processors (Figure 3)", true, fig3.table},
	{"fig4", "Speedup of indexed selections (Figure 4)", true, fig4.table},
	{"fig5", "Non-indexed selections vs disk page size (Figure 5)", true, fig5.table},
	{"fig6", "Speedup vs disk page size, non-indexed (Figure 6)", true, fig6.table},
	{"fig7", "Indexed selections vs disk page size (Figure 7)", true, fig7.table},
	{"fig8", "Speedup vs disk page size, indexed (Figure 8)", true, fig8.table},
	{"fig9", "joinABprime on key attributes vs processors (Figure 9)", true, fig9.table},
	{"fig10", "joinABprime on non-key attributes vs processors (Figure 10)", true, fig10.table},
	{"fig11", "Speedup of key-attribute joins (Figure 11)", true, fig11.table},
	{"fig12", "Speedup of non-key-attribute joins (Figure 12)", true, fig12.table},
	{"fig13", "Join overflow: response time vs memory (Figure 13)", true, runFig13},
	{"fig14", "joinAselB vs disk page size (Figure 14)", true, fig14.table},
	{"fig15", "Speedup of joinAselB vs disk page size (Figure 15)", true, fig15.table},

	{"aggregate", "Aggregate queries (deferred to [DEWI88] by the paper)", false, aggregates.table},
	{"hybrid", "Ablation: Simple vs Hybrid hash join under memory pressure (§8)", true, runHybrid},
	{"bitvector", "Ablation: Babb bit-vector filters in split tables (§2)", true, runBitVector},
	{"pagesize-default", "Ablation: 4 KB vs 8 KB default page size (§8)", true, runPageSizeDefault},
	{"placement", "Placement: Remote joins shield concurrent selections (§6.2.1's deferred validation)", false, runPlacement},
	{"recovery", "Ablation: the §8 recovery server's cost on the Table 1/3 workload", false, runRecovery},
	{"scaleup", "Scaleup: constant per-processor data as processors grow", true, runScaleup},
	{"multiuser", "Multiuser: closed-loop throughput vs multiprogramming level, shared scans on vs off", false, runMultiuser},
	{"degraded", "Degraded-mode selections and join under failures", false, runDegraded},
	{"availability", "Availability under a seeded fault campaign: throughput dip, MTTR, self-healing", false, runAvailability},
	{"scale100", "Speedup and scaleup at 64/128/256 processors (beyond the paper's 30)", false, runScale100},
	{"netgen", "Hardware generations: the binding resource migrates as network/CPU/disk evolve", true, runNetgen},
	{"kernelscale", "EOT kernel scaling: window occupancy and speedup across hardware generations", false, runKernelScale},
}

// Experiments lists all registered experiments in a stable order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	for i, e := range registry {
		out[i] = Experiment{ID: e.id, Title: e.title, Run: func(o Options) *Table {
			if e.windowed {
				o = o.windowed()
			}
			t := e.run(o)
			t.ID = e.id
			return t
		}}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
