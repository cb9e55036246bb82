package bench

import (
	"fmt"
	"time"

	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/teradata"
	"gamma/internal/wisconsin"
)

// paperTable1[row][size][machine]: published seconds; machine 0 = Teradata,
// 1 = Gamma; size index 0=10k 1=100k 2=1M; 0 = not published.
var paperTable1 = map[string][3][2]float64{
	"1% nonindexed selection":                 {{6.86, 1.63}, {28.22, 13.83}, {213.13, 134.86}},
	"10% nonindexed selection":                {{15.97, 2.11}, {110.96, 17.44}, {1106.86, 181.72}},
	"1% selection using non-clustered index":  {{7.81, 1.03}, {29.94, 5.32}, {222.65, 53.86}},
	"10% selection using non-clustered index": {{16.82, 2.16}, {111.40, 17.65}, {1107.59, 182.00}},
	"1% selection using clustered index":      {{0, 0.59}, {0, 1.25}, {0, 7.50}},
	"10% selection using clustered index":     {{0, 1.26}, {0, 7.27}, {0, 69.60}},
	"single tuple select":                     {{0, 0.15}, {1.08, 0.15}, {0, 0.20}},
}

func sizeIndex(n int) int {
	switch n {
	case 10000:
		return 0
	case 100000:
		return 1
	case 1000000:
		return 2
	}
	return -1
}

func paperOf(table map[string][3][2]float64, row string, n, machine int) float64 {
	si := sizeIndex(n)
	if si < 0 {
		return 0
	}
	return table[row][si][machine]
}

// teraSetup builds a Teradata machine with the two relation versions.
type teraSetup struct {
	m     *teradata.Machine
	heap  *teradata.Relation
	idx   *teradata.Relation
	extra map[string]*teradata.Relation
}

// newTera builds the Teradata reference machine: the n-tuple relation under
// both names — on the DBC/1012 "Aidx" is the same hash file as "Aheap" plus a
// secondary index in the catalog — and any extra heaps. Like gammaMachine it
// loads from scratch without an image cache and otherwise attaches the
// suite's relation images, and its wall time is charged to setup.
func newTera(o Options, n int, seed uint64, extras ...relSpec) *teraSetup {
	defer o.run.addSetup(time.Now())
	prm := o.params()
	m := teradata.NewMachine(o.newSim(), &prm)
	// teradata's Load only reads its input, so both paths take the memo's master.
	place := func(name string, n int, seed uint64, secondary ...rel.Attr) *teradata.Relation {
		if o.run == nil {
			return m.Load(name, rel.Unique1, secondary, wisconsin.Shared(n, seed))
		}
		img := image(o.run, imageKey{tera: true, prm: prm, rel: relSpec{n: n, seed: seed}}, func() *teradata.RelationImage {
			p := prm // private copy: the machine keeps the pointer
			return teradata.NewMachine(sim.New(), &p).Load(name, rel.Unique1, nil, wisconsin.Shared(n, seed)).Image()
		})
		r, err := m.Attach(name, secondary, img)
		if err != nil {
			panic(err) // the key holds the AMP count; a relation named twice is a bug
		}
		return r
	}
	setup := &teraSetup{
		m:     m,
		heap:  place("Aheap", n, seed),
		idx:   place("Aidx", n, seed, rel.Unique2),
		extra: map[string]*teradata.Relation{},
	}
	for _, rs := range extras {
		setup.extra[rs.name] = place(rs.name, rs.n, rs.seed)
	}
	return setup
}

// paperRows fills t with the rows of one of Tables 1-3: a Teradata and a
// Gamma column per relation size, a row per label, the published values
// beside the measured ones. Each size is an independent pair of machines, so
// they fan out: measure(n) builds the pair for n tuples, runs the rows on it
// in label order and returns each row's measured (Teradata, Gamma) cells.
func paperRows(o Options, t *Table, labels []string, paper map[string][3][2]float64, measure func(n int) [][2]Cell) {
	perSize := parMap(o, len(o.Sizes), func(i int) [][2]Cell { return measure(o.Sizes[i]) })
	t.Rows = make([]Row, len(labels))
	for i, n := range o.Sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%d Tera", n), fmt.Sprintf("%d Gamma", n))
		for r, label := range labels {
			c := perSize[i][r]
			c[0].Paper, c[1].Paper = paperOf(paper, label, n, 0), paperOf(paper, label, n, 1)
			t.Rows[r].Label = label
			t.Rows[r].Cells = append(t.Rows[r].Cells, c[0], c[1])
		}
	}
}

// teraSelection is the Teradata form of a percent selection on unique2: a
// file scan or a secondary-index scan of the heap or the indexed version.
func teraSelection(indexed bool, percent float64, kind teradata.SelectKind) func(ts *teraSetup) teradata.Result {
	return func(ts *teraSetup) teradata.Result {
		r := ts.heap
		if indexed {
			r = ts.idx
		}
		return ts.m.RunSelect(r, pct(rel.Unique2, r.N, percent), kind, false)
	}
}

// table1Rows are the selections of Table 1 on both machines; tera is nil
// where Teradata has nothing to run.
var table1Rows = []struct {
	label string
	tera  func(ts *teraSetup) teradata.Result
	gamma func(g *gammaSetup, n int) core.SelectQuery
}{
	{"1% nonindexed selection", teraSelection(false, 1, teradata.FileScan), heapSel(1).on},
	{"10% nonindexed selection", teraSelection(false, 10, teradata.FileScan), heapSel(10).on},
	{"1% selection using non-clustered index", teraSelection(true, 1, teradata.IndexScan), nonClusteredSel(1).on},
	// The Teradata optimizer correctly declines the index (§5.1), and
	// Gamma's picks a segment scan too (§5.2.1).
	{"10% selection using non-clustered index", teraSelection(true, 10, teradata.FileScan),
		selection{indexed: true, attr: rel.Unique2, percent: 10, path: core.PathHeap}.on},
	{"1% selection using clustered index", nil, clusteredSel(1).on},
	{"10% selection using clustered index", nil, clusteredSel(10).on},
	{"single tuple select",
		func(ts *teraSetup) teradata.Result {
			return ts.m.RunSelect(ts.idx, rel.Eq(rel.Unique1, int32(ts.idx.N/2)), teradata.HashAccess, true)
		},
		func(g *gammaSetup, n int) core.SelectQuery {
			return core.SelectQuery{
				Scan:   core.ScanSpec{Rel: g.idx, Pred: rel.Eq(rel.Unique1, int32(n/2)), Path: core.PathClustered},
				ToHost: true,
			}
		}},
}

func runTable1(o Options) *Table {
	t := &Table{Title: "Selection Queries (execution times in seconds)", Unit: "seconds"}
	labels := make([]string, len(table1Rows))
	for i, r := range table1Rows {
		labels[i] = r.label
	}
	paperRows(o, t, labels, paperTable1, func(n int) [][2]Cell {
		ts := newTera(o, n, 1)
		g := newGamma(o, 8, 8, n, 1)
		cells := make([][2]Cell, len(table1Rows))
		for i, r := range table1Rows {
			if r.tera != nil {
				cells[i][0].Measured = r.tera(ts).Elapsed.Seconds()
			}
			cells[i][1].Measured = g.selectSecs(r.gamma(g, n))
		}
		return cells
	})
	t.Notes = append(t.Notes,
		"Gamma: 8 disk + 8 diskless processors, 4 KB pages; Teradata: 4 IFP / 20 AMP / 40 DSU.",
		"Teradata has no clustered indices (§3); those rows are Gamma-only, as in the paper.")
	return t
}
