package bench

import "sort"

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Table
}

// registry is every experiment the package can run.
var registry = []struct {
	id, title string
	run       func(o Options) *Table
}{
	{"table1", "Selection queries (Table 1)", runTable1},
	{"table2", "Join queries (Table 2)", runTable2},
	{"table3", "Update queries (Table 3)", runTable3},

	{"fig1", "Non-indexed selections vs processors (Figure 1)", fig1.table},
	{"fig2", "Speedup of non-indexed selections (Figure 2)", fig2.table},
	{"fig3", "Indexed selections vs processors (Figure 3)", fig3.table},
	{"fig4", "Speedup of indexed selections (Figure 4)", fig4.table},
	{"fig5", "Non-indexed selections vs disk page size (Figure 5)", fig5.table},
	{"fig6", "Speedup vs disk page size, non-indexed (Figure 6)", fig6.table},
	{"fig7", "Indexed selections vs disk page size (Figure 7)", fig7.table},
	{"fig8", "Speedup vs disk page size, indexed (Figure 8)", fig8.table},
	{"fig9", "joinABprime on key attributes vs processors (Figure 9)", fig9.table},
	{"fig10", "joinABprime on non-key attributes vs processors (Figure 10)", fig10.table},
	{"fig11", "Speedup of key-attribute joins (Figure 11)", fig11.table},
	{"fig12", "Speedup of non-key-attribute joins (Figure 12)", fig12.table},
	{"fig13", "Join overflow: response time vs memory (Figure 13)", runFig13},
	{"fig14", "joinAselB vs disk page size (Figure 14)", fig14.table},
	{"fig15", "Speedup of joinAselB vs disk page size (Figure 15)", fig15.table},

	{"aggregate", "Aggregate queries (deferred to [DEWI88] by the paper)", aggregates.table},
	{"hybrid", "Ablation: Simple vs Hybrid hash join under memory pressure (§8)", runHybrid},
	{"bitvector", "Ablation: Babb bit-vector filters in split tables (§2)", runBitVector},
	{"pagesize-default", "Ablation: 4 KB vs 8 KB default page size (§8)", runPageSizeDefault},
	{"placement", "Placement: Remote joins shield concurrent selections (§6.2.1's deferred validation)", runPlacement},
	{"recovery", "Ablation: the §8 recovery server's cost on the Table 1/3 workload", runRecovery},
	{"multiuser", "Multiuser: closed-loop throughput vs multiprogramming level, shared scans on vs off", runMultiuser},
	{"availability", "Availability under a seeded fault campaign: throughput dip, MTTR, self-healing", runAvailability},
	{"scale100", "Speedup and scaleup at 64/128/256 processors (beyond the paper's 30)", runScale100},
}

// Experiments lists all registered experiments in a stable order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	for i, e := range registry {
		out[i] = Experiment{ID: e.id, Title: e.title, Run: func(o Options) *Table {
			t := e.run(o)
			t.ID = e.id
			return t
		}}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by id, or the tombstone of a retired one.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return tombstone(id)
}
