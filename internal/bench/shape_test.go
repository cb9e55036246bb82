package bench

// Shape-regression tests: the paper's qualitative claims about Tables 1-2
// and Figures 3-4, asserted on quick-scale runs so calibration drift fails
// tests instead of passing silently. The claims tested are orderings (who
// wins, which access path is cheaper, which curve rises), not absolute
// seconds — the shapes are what the paper's analysis hangs on.

import (
	"testing"
)

// lookupRun regenerates an experiment the way gammabench does: through the
// registry, so on the model the registry runs it on.
func lookupRun(t *testing.T, id string, o Options) *Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e.Run(o)
}

// cellsOf returns a row's cells by label.
func cellsOf(t *testing.T, tbl *Table, label string) []Cell {
	t.Helper()
	for _, r := range tbl.Rows {
		if r.Label == label {
			return r.Cells
		}
	}
	t.Fatalf("table %s has no row %q", tbl.ID, label)
	return nil
}

// teraGamma splits a Table 1/2-style row into (teradata, gamma) seconds for
// size index si (cells alternate Tera, Gamma per size).
func teraGamma(cells []Cell, si int) (tera, gamma float64) {
	return cells[2*si].Measured, cells[2*si+1].Measured
}

// TestTable1Shape asserts Table 1's qualitative claims at 10k and 100k
// tuples: Gamma beats Teradata on every selection row the paper publishes
// both numbers for, and the access paths order clustered < non-clustered <
// heap for the 1% selection.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Quick()
	tbl := lookupRun(t, "table1", o)

	// Rows with a Teradata measurement: Gamma must win at every size
	// (the paper's Table 1 Gamma column is uniformly lower at 10k/100k).
	teraRows := []string{
		"1% nonindexed selection",
		"10% nonindexed selection",
		"1% selection using non-clustered index",
		"10% selection using non-clustered index",
		"single tuple select",
	}
	for _, label := range teraRows {
		cells := cellsOf(t, tbl, label)
		for si, n := range o.Sizes {
			tera, gamma := teraGamma(cells, si)
			if tera <= 0 || gamma <= 0 {
				t.Errorf("%s at %d tuples: non-positive times tera=%.3f gamma=%.3f", label, n, tera, gamma)
				continue
			}
			if gamma >= tera {
				t.Errorf("%s at %d tuples: Gamma %.2fs not faster than Teradata %.2fs", label, n, gamma, tera)
			}
		}
	}

	// Access-path ordering for the 1% selection (§5.1/§5.2): the clustered
	// index reads only the qualifying range, the non-clustered index pays
	// a random I/O per tuple but skips 99% of the relation, the heap scan
	// reads everything.
	clustered := cellsOf(t, tbl, "1% selection using clustered index")
	nonClustered := cellsOf(t, tbl, "1% selection using non-clustered index")
	heap := cellsOf(t, tbl, "1% nonindexed selection")
	for si, n := range o.Sizes {
		_, c := teraGamma(clustered, si)
		_, nc := teraGamma(nonClustered, si)
		_, h := teraGamma(heap, si)
		if !(c < nc && nc < h) {
			t.Errorf("1%% selection at %d tuples: want clustered < non-clustered < heap, got %.2f / %.2f / %.2f",
				n, c, nc, h)
		}
	}
}

// TestTable2Shape asserts Table 2's headline claim at 10k and 100k tuples:
// Gamma wins every join row (the 1M-tuple joinABprime rows, where overflow
// resolution hands Teradata the win, are outside Quick's sizes).
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Quick()
	tbl := lookupRun(t, "table2", o)
	for _, r := range tbl.Rows {
		for si, n := range o.Sizes {
			tera, gamma := teraGamma(r.Cells, si)
			if tera <= 0 || gamma <= 0 {
				t.Errorf("%s at %d tuples: non-positive times tera=%.3f gamma=%.3f", r.Label, n, tera, gamma)
				continue
			}
			if gamma >= tera {
				t.Errorf("%s at %d tuples: Gamma %.2fs not faster than Teradata %.2fs", r.Label, n, gamma, tera)
			}
		}
	}
}

// TestFig4Anomaly asserts the Figure 3/4 anomaly: the 0% non-clustered
// selection's response time RISES with processors — operator initiation
// outweighs the 1-2 I/Os of an empty index probe — while the 1%
// non-clustered selection still speeds up (§5.2.1).
func TestFig4Anomaly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl := lookupRun(t, "fig3", Quick())
	procs := make([]int, len(tbl.Rows))
	byName := map[string][]float64{}
	for i, r := range tbl.Rows {
		procs[i] = i + 1
		for c, col := range tbl.Columns {
			byName[col] = append(byName[col], r.Cells[c].Measured)
		}
	}

	zero := byName["0% non-clustered idx"]
	if len(zero) != len(procs) {
		t.Fatalf("0%% series has %d points, want %d", len(zero), len(procs))
	}
	first, last := zero[0], zero[len(zero)-1]
	if last <= first {
		t.Errorf("0%% non-clustered selection: %d procs %.3fs -> %d procs %.3fs; want response time to RISE",
			procs[0], first, procs[len(procs)-1], last)
	}
	// The rise should be monotone-ish: no point below the 1-processor time.
	for i, v := range zero {
		if v < first {
			t.Errorf("0%% non-clustered selection dips below the 1-processor time at %d procs: %.3fs < %.3fs",
				procs[i], v, first)
		}
	}

	one := byName["1% non-clustered idx"]
	if one[len(one)-1] >= one[0] {
		t.Errorf("1%% non-clustered selection: %.3fs -> %.3fs; want speedup with processors",
			one[0], one[len(one)-1])
	}
}
