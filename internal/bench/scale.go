package bench

// The 100+-node scale experiment: the paper's speedup and scaleup curves
// stop at 30 processors because the real Gamma did. The same machine model
// runs at 64, 128, and 256 simulated processors — the regime the follow-on
// literature (Rödiger et al.'s high-speed networks, Hespe et al.'s cluster
// OLAP) studies.

import "fmt"

// scaleNodes are the cluster sizes of the scale experiment.
var scaleNodes = []int{64, 128, 256}

// runScale100 extends the paper's §5 speedup and scaleup methodology past
// its 30-processor ceiling: a fixed-size 1% non-indexed selection as the
// cluster grows (speedup), and a constant tuples-per-processor selection
// (scaleup). Both series run the standard Gamma machine model with the
// 64-node row as the baseline. The headline measurement is negative, and honestly
// so: Gamma's serialized per-site query initiation, invisible at the
// paper's 30 processors, dominates at 100+ sites and inverts both curves
// (see the table notes).
func runScale100(o Options) *Table {
	t := &Table{
		Title:   "Speedup and scaleup at 64-256 processors (1% nonindexed selection)",
		Unit:    "seconds",
		Columns: []string{"fixed DB", "speedup vs 64", "per-proc DB", "scaleup vs 64"},
	}
	totalN, perProc := scaleSizes(o)
	type point struct {
		fixed, scaled float64
	}
	pts := parMap(o, len(scaleNodes), func(i int) point {
		d := scaleNodes[i]
		// Speedup: the same totalN-tuple relation declustered over d sites.
		gf := setupScale(o, d, totalN)
		fixed := gf.selectSecs(heapSel(1).of(gf.rel("S"), totalN))
		// Scaleup: the database grows with the machine.
		ns := perProc * d
		gs := setupScale(o, d, ns)
		scaled := gs.selectSecs(heapSel(1).of(gs.rel("S"), ns))
		return point{fixed: fixed, scaled: scaled}
	})
	for i, d := range scaleNodes {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%d processors", d),
			Cells: []Cell{
				{Measured: pts[i].fixed},
				{Measured: pts[0].fixed / pts[i].fixed},
				{Measured: pts[i].scaled},
				{Measured: pts[0].scaled / pts[i].scaled},
			},
		})
	}
	t.Notes = append(t.Notes,
		"Speedup normalizes to the 64-processor row (the paper's Figure 2 methodology, 2-8x its scale);",
		"scaleup holds tuples per processor constant, so a flat column (ratio near 1) is perfect.",
		"Measured result: both curves invert past 64 sites — the initiation wall. The 0.6-MIPS",
		"scheduler dispatches 4 control messages per operator per site (§6.2.3) serially, ~60 ms of",
		"scheduler CPU per site, which overtakes any feasible per-site scan beyond the paper's scale.",
		"This is §5's 'query initiation grows with the number of sites' extrapolated to where it bites,",
		"and exactly the coordination cost the 100+-node literature (PAPERS.md) redesigns away.")
	return t
}

// scaleSizes returns the fixed database of the speedup series and the
// per-processor density of the scaleup series. The fixed database is 8x the
// figure size so per-site fragments stay scan-dominated out to 256 sites (at
// the figure size itself, per-site startup swamps a sub-page fragment and the
// curve inverts). Quick options: 160,000 total and 500 per processor.
func scaleSizes(o Options) (totalN, perProc int) {
	return o.FigureTuples * 8, max(o.FigureTuples/40, 500)
}

// scaleReads declares the fixed database and the scaleup series' databases.
func scaleReads(o Options) []genKey {
	totalN, perProc := scaleSizes(o)
	out := []genKey{{totalN, 1}}
	for _, d := range scaleNodes {
		out = append(out, genKey{perProc * d, 1})
	}
	return out
}

// setupScale builds a d-disk-site machine loaded with one n-tuple heap
// relation (no diskless sites, no indexes — the lean geometry that keeps a
// 256-node machine cheap to image).
func setupScale(o Options, d, n int) *gammaSetup {
	return &gammaSetup{m: o.gammaMachine(d, 0, false, []relSpec{heapRel("S", n, 1)})}
}
