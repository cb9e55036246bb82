package bench

import "sort"

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Table

	// reads lists the relation versions Run may read under o, each a load
	// or an attach; nil reads none. A suite run keeps a relation only while
	// a phase that declares it may still read it (see RunSuite).
	reads func(o Options) []read
	// bySize marks a Run that plots a column pair per size of o.Sizes, each
	// from machines of its own (paperRows): a suite runs it once per size
	// and joins the columns.
	bySize bool
}

// The benchmark relations of size n, as every experiment but scale100
// generates them: A, its tenth Bprime, the join-only B, and C,
// Table 2's third relation.
func relA(n int) genKey      { return genKey{n, 1} }
func relBprime(n int) genKey { return genKey{n / 10, 7} }
func relB(n int) genKey      { return genKey{n, 8} }
func relC(n int) genKey      { return genKey{n / 10, 9} }

// loads declares keys, each in both versions, as relations the phase loads.
func loads(keys ...genKey) []read {
	var out []read
	for _, k := range keys {
		out = append(out, read{version{k, false}, false}, read{version{k, true}, false})
	}
	return out
}

// figureReads declares rels as loads at the figure relation's size.
func figureReads(rels ...func(n int) genKey) func(o Options) []read {
	return func(o Options) []read {
		var out []read
		for _, r := range rels {
			out = append(out, loads(r(o.FigureTuples))...)
		}
		return out
	}
}

// tableReads declares reads(n) at every table size n.
func tableReads(reads func(n int) []read) func(o Options) []read {
	return func(o Options) []read {
		var out []read
		for _, n := range o.Sizes {
			out = append(out, reads(n)...)
		}
		return out
	}
}

// The tables' reads at size n: table1 loads A and builds every image of it,
// which table3 and table2 attach; no join reads an index, so table2 attaches
// A's heap alone.
func table1Reads(n int) []read { return loads(relA(n)) }
func table2Reads(n int) []read {
	return append(loads(relBprime(n), relB(n), relC(n)), attach(relA(n), false))
}
func table3Reads(n int) []read { return []read{attach(relA(n), false), attach(relA(n), true)} }

// attach declares a version of k as one the phase attaches.
func attach(k genKey, indexed bool) read { return read{version{k, indexed}, true} }

// registry is every experiment the package can run. The reads column declares
// the relations each reads. A speedup figure declares its sibling's relations:
// under -parallel either of the two may simulate the sweep they share. The
// tables' rows are bySize.
var registry = []struct {
	id, title string
	run       func(o Options) *Table
	reads     func(o Options) []read
	bySize    bool
}{
	{"table1", "Selection queries (Table 1)", runTable1, tableReads(table1Reads), true},
	{"table2", "Join queries (Table 2)", runTable2, tableReads(table2Reads), true},
	{"table3", "Update queries (Table 3)", runTable3, tableReads(table3Reads), true},

	{"fig1", "Non-indexed selections vs processors (Figure 1)", fig1.table, figureReads(relA), false},
	{"fig2", "Speedup of non-indexed selections (Figure 2)", fig2.table, figureReads(relA), false},
	{"fig3", "Indexed selections vs processors (Figure 3)", fig3.table, figureReads(relA), false},
	{"fig4", "Speedup of indexed selections (Figure 4)", fig4.table, figureReads(relA), false},
	{"fig5", "Non-indexed selections vs disk page size (Figure 5)", fig5.table, figureReads(relA), false},
	{"fig6", "Speedup vs disk page size, non-indexed (Figure 6)", fig6.table, figureReads(relA), false},
	{"fig7", "Indexed selections vs disk page size (Figure 7)", fig7.table, figureReads(relA), false},
	{"fig8", "Speedup vs disk page size, indexed (Figure 8)", fig8.table, figureReads(relA), false},
	{"fig9", "joinABprime on key attributes vs processors (Figure 9)", fig9.table, figureReads(relA, relBprime), false},
	{"fig10", "joinABprime on non-key attributes vs processors (Figure 10)", fig10.table, figureReads(relA, relBprime), false},
	{"fig11", "Speedup of key-attribute joins (Figure 11)", fig11.table, figureReads(relA, relBprime), false},
	{"fig12", "Speedup of non-key-attribute joins (Figure 12)", fig12.table, figureReads(relA, relBprime), false},
	{"fig13", "Join overflow: response time vs memory (Figure 13)", runFig13, figureReads(relA, relBprime), false},
	{"fig14", "joinAselB vs disk page size (Figure 14)", fig14.table, figureReads(relA, relB), false},
	{"fig15", "Speedup of joinAselB vs disk page size (Figure 15)", fig15.table, figureReads(relA, relB), false},

	{"aggregate", "Aggregate queries (deferred to [DEWI88] by the paper)", aggregates.table, figureReads(relA), false},
	{"hybrid", "Ablation: Simple vs Hybrid hash join under memory pressure (§8)", runHybrid, figureReads(relA, relBprime), false},
	{"bitvector", "Ablation: Babb bit-vector filters in split tables (§2)", runBitVector, figureReads(relA, relBprime), false},
	{"pagesize-default", "Ablation: 4 KB vs 8 KB default page size (§8)", runPageSizeDefault, figureReads(relA), false},
	{"placement", "Placement: Remote joins shield concurrent selections (§6.2.1's deferred validation)", runPlacement, figureReads(relA, relBprime), false},
	{"recovery", "Ablation: the §8 recovery server's cost on the Table 1/3 workload", runRecovery, figureReads(relA), false},
	{"scale100", "Speedup and scaleup at 64/128/256 processors (beyond the paper's 30)", runScale100, scaleReads, false},
}

// Experiments lists all registered experiments in a stable order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	for i, e := range registry {
		out[i] = Experiment{ID: e.id, Title: e.title, Run: func(o Options) *Table {
			t := e.run(o)
			t.ID = e.id
			return t
		}, reads: e.reads, bySize: e.bySize}
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
