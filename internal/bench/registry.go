package bench

import "sort"

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Table

	// reads lists the Wisconsin relations (n, seed) Run may read under o; nil
	// reads none. A suite run keeps a relation only until the last
	// experiment that declares it returns (see RunSuite).
	reads func(o Options) []genKey
}

// The benchmark relations of size n, as every experiment but multiuser,
// availability and scale100 generates them: A, its tenth Bprime, the
// join-only B, and C, Table 2's third relation.
func relA(n int) genKey      { return genKey{n, 1} }
func relBprime(n int) genKey { return genKey{n / 10, 7} }
func relB(n int) genKey      { return genKey{n, 8} }
func relC(n int) genKey      { return genKey{n / 10, 9} }

// figureReads declares rels at the figure relation's size.
func figureReads(rels ...func(n int) genKey) func(o Options) []genKey {
	return func(o Options) []genKey {
		out := make([]genKey, len(rels))
		for i, r := range rels {
			out[i] = r(o.FigureTuples)
		}
		return out
	}
}

// tableReads declares rels at every table size.
func tableReads(rels ...func(n int) genKey) func(o Options) []genKey {
	return func(o Options) []genKey {
		var out []genKey
		for _, n := range o.Sizes {
			for _, r := range rels {
				out = append(out, r(n))
			}
		}
		return out
	}
}

// registry is every experiment the package can run. The last column declares
// the relations each reads. A speedup figure declares its sibling's relations:
// under -parallel either of the two may simulate the sweep they share.
var registry = []struct {
	id, title string
	run       func(o Options) *Table
	reads     func(o Options) []genKey
}{
	{"table1", "Selection queries (Table 1)", runTable1, tableReads(relA)},
	{"table2", "Join queries (Table 2)", runTable2, tableReads(relA, relBprime, relB, relC)},
	{"table3", "Update queries (Table 3)", runTable3, tableReads(relA)},

	{"fig1", "Non-indexed selections vs processors (Figure 1)", fig1.table, figureReads(relA)},
	{"fig2", "Speedup of non-indexed selections (Figure 2)", fig2.table, figureReads(relA)},
	{"fig3", "Indexed selections vs processors (Figure 3)", fig3.table, figureReads(relA)},
	{"fig4", "Speedup of indexed selections (Figure 4)", fig4.table, figureReads(relA)},
	{"fig5", "Non-indexed selections vs disk page size (Figure 5)", fig5.table, figureReads(relA)},
	{"fig6", "Speedup vs disk page size, non-indexed (Figure 6)", fig6.table, figureReads(relA)},
	{"fig7", "Indexed selections vs disk page size (Figure 7)", fig7.table, figureReads(relA)},
	{"fig8", "Speedup vs disk page size, indexed (Figure 8)", fig8.table, figureReads(relA)},
	{"fig9", "joinABprime on key attributes vs processors (Figure 9)", fig9.table, figureReads(relA, relBprime)},
	{"fig10", "joinABprime on non-key attributes vs processors (Figure 10)", fig10.table, figureReads(relA, relBprime)},
	{"fig11", "Speedup of key-attribute joins (Figure 11)", fig11.table, figureReads(relA, relBprime)},
	{"fig12", "Speedup of non-key-attribute joins (Figure 12)", fig12.table, figureReads(relA, relBprime)},
	{"fig13", "Join overflow: response time vs memory (Figure 13)", runFig13, figureReads(relA, relBprime)},
	{"fig14", "joinAselB vs disk page size (Figure 14)", fig14.table, figureReads(relA, relB)},
	{"fig15", "Speedup of joinAselB vs disk page size (Figure 15)", fig15.table, figureReads(relA, relB)},

	{"aggregate", "Aggregate queries (deferred to [DEWI88] by the paper)", aggregates.table, figureReads(relA)},
	{"hybrid", "Ablation: Simple vs Hybrid hash join under memory pressure (§8)", runHybrid, figureReads(relA, relBprime)},
	{"bitvector", "Ablation: Babb bit-vector filters in split tables (§2)", runBitVector, figureReads(relA, relBprime)},
	{"pagesize-default", "Ablation: 4 KB vs 8 KB default page size (§8)", runPageSizeDefault, figureReads(relA)},
	{"placement", "Placement: Remote joins shield concurrent selections (§6.2.1's deferred validation)", runPlacement, figureReads(relA, relBprime)},
	{"recovery", "Ablation: the §8 recovery server's cost on the Table 1/3 workload", runRecovery, figureReads(relA)},
	{"multiuser", "Multiuser: closed-loop throughput vs multiprogramming level, shared scans on vs off", runMultiuser, muReads},
	{"availability", "Availability under a seeded fault campaign: throughput dip, MTTR, self-healing", runAvailability, avReads},
	{"scale100", "Speedup and scaleup at 64/128/256 processors (beyond the paper's 30)", runScale100, scaleReads},
}

// Experiments lists all registered experiments in a stable order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	for i, e := range registry {
		out[i] = Experiment{ID: e.id, Title: e.title, Run: func(o Options) *Table {
			t := e.run(o)
			t.ID = e.id
			return t
		}, reads: e.reads}
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
