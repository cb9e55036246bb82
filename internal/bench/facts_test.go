package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// A fact is one claim about an experiment's table, written once. Its check
// reads nothing but the table — the cells gammabench prints and -json
// carries — and says how the table breaks the claim, or returns nil. The
// figures carry no published numbers, so for them the facts are the whole
// external oracle. TestResultDigests checks every fact on the quick-suite run
// that the golden pins.
type fact struct {
	claim string
	check func(t *Table) error
}

// facts are the claims each experiment's table must bear out: the paper's
// shapes for Tables 1-3 and Figures 1-15, the headline claims of the
// extensions.
var facts = map[string][]fact{
	"table1": {
		{"Gamma is faster than Teradata on every selection both machines run, at every size", func(t *Table) error {
			for _, r := range table1Rows {
				if r.tera == nil {
					continue
				}
				sizes, tera, gamma := paperCells(t, r.label)
				if err := below(sizes, gamma, tera); err != nil {
					return fmt.Errorf("%s, Gamma vs Teradata: %w", r.label, err)
				}
			}
			return nil
		}},
		{"at 1% the clustered index beats the non-clustered index, which beats the heap scan", func(t *Table) error {
			sizes, _, clustered := paperCells(t, "1% selection using clustered index")
			_, _, nonClustered := paperCells(t, "1% selection using non-clustered index")
			_, _, heap := paperCells(t, "1% nonindexed selection")
			if err := below(sizes, clustered, nonClustered); err != nil {
				return fmt.Errorf("clustered vs non-clustered: %w", err)
			}
			return below(sizes, nonClustered, heap)
		}},
		{"the non-clustered index beats the heap scan at 1% and loses to it at 10% (the index-vs-scan crossover)", func(t *Table) error {
			sizes, _, index1 := paperCells(t, "1% selection using non-clustered index")
			_, _, heap1 := paperCells(t, "1% nonindexed selection")
			_, _, index10 := paperCells(t, "10% selection using non-clustered index")
			_, _, heap10 := paperCells(t, "10% nonindexed selection")
			if err := below(sizes, index1, heap1); err != nil {
				return fmt.Errorf("1%%: %w", err)
			}
			if err := below(sizes, heap10, index10); err != nil {
				return fmt.Errorf("10%%: %w", err)
			}
			return nil
		}},
	},
	"table2": {
		{"Gamma is faster than Teradata on every join at every size", func(t *Table) error {
			for _, r := range t.Rows {
				sizes, tera, gamma := paperCells(t, r.Label)
				if err := below(sizes, gamma, tera); err != nil {
					return fmt.Errorf("%s: %w", r.Label, err)
				}
			}
			return nil
		}},
		{"the machines order the joins oppositely: Teradata runs joinABprime faster than joinAselB, Gamma joinAselB faster than joinABprime, on both attributes", func(t *Table) error {
			for _, attr := range []string{"non-key join attribute", "key join attribute"} {
				sizes, teraAB, gammaAB := paperCells(t, "joinABprime, "+attr)
				_, teraAselB, gammaAselB := paperCells(t, "joinAselB, "+attr)
				if err := below(sizes, teraAB, teraAselB); err != nil {
					return fmt.Errorf("Teradata, %s: %w", attr, err)
				}
				if err := below(sizes, gammaAselB, gammaAB); err != nil {
					return fmt.Errorf("Gamma, %s: %w", attr, err)
				}
			}
			return nil
		}},
	},
	"table3": {
		{"modifying the key attribute is the costliest update on both machines at every size", func(t *Table) error {
			sizes, teraKey, gammaKey := paperCells(t, "modify 1 tuple (key attribute)")
			for _, r := range t.Rows {
				if r.Label == "modify 1 tuple (key attribute)" {
					continue
				}
				_, tera, gamma := paperCells(t, r.Label)
				if err := below(sizes, tera, teraKey); err != nil {
					return fmt.Errorf("Teradata, %s: %w", r.Label, err)
				}
				if err := below(sizes, gamma, gammaKey); err != nil {
					return fmt.Errorf("Gamma, %s: %w", r.Label, err)
				}
			}
			return nil
		}},
		{"an append costs more when an index exists, on both machines at every size", func(t *Table) error {
			sizes, teraNone, gammaNone := paperCells(t, "append 1 tuple (no indices exist)")
			_, teraOne, gammaOne := paperCells(t, "append 1 tuple (one index exists)")
			if err := below(sizes, teraNone, teraOne); err != nil {
				return fmt.Errorf("Teradata: %w", err)
			}
			if err := below(sizes, gammaNone, gammaOne); err != nil {
				return fmt.Errorf("Gamma: %w", err)
			}
			return nil
		}},
	},

	"fig1": {timeFallsWithProcessors},
	"fig2": {timeFallsWithProcessors, nearLinearSpeedup, {
		"with the most processors the 10% selection has the lowest speedup", func(t *Table) error {
			last := t.Rows[len(t.Rows)-1]
			ten := last.Cells[colIndex(t, "10% sel")].Measured
			for c, cell := range last.Cells {
				if cell.Measured < ten {
					return fmt.Errorf("%s: %s %.4g is below the 10%% curve's %.4g", last.Label, t.Columns[c], cell.Measured, ten)
				}
			}
			return nil
		}}},
	"fig3": {emptyProbeSlows, onePercentIndexSpeedsUp},
	"fig4": {emptyProbeSlows, onePercentIndexSpeedsUp},
	"fig5": {pageGainsDiminish},
	"fig6": {pageGainsDiminish},
	"fig7": indexedByPageSize,
	"fig8": indexedByPageSize,
	"fig9": {{"Local is faster than Remote at every processor count (every input tuple short-circuits)", func(t *Table) error {
		return below(rowLabels(t), column(t, "Local"), column(t, "Remote"))
	}}},
	"fig10": {{"Local beats Remote on one processor and loses to it on two or more (the 1/n short-circuit)", func(t *Table) error {
		at, local, remote := rowLabels(t), column(t, "Local"), column(t, "Remote")
		if err := below(at[:1], local[:1], remote[:1]); err != nil {
			return err
		}
		return below(at[1:], remote[1:], local[1:])
	}}},
	"fig11": {nearLinearSpeedup},
	"fig12": {{"Remote has the steepest speedup: the highest at every count above the 2-processor reference", func(t *Table) error {
		at, remote := rowLabels(t)[2:], column(t, "Remote")[2:]
		for _, other := range []string{"Local", "Allnodes"} {
			if err := below(at, column(t, other)[2:], remote); err != nil {
				return fmt.Errorf("%s vs Remote: %w", other, err)
			}
		}
		return nil
	}}},
	"fig13": {
		{"no overflow with memory at 1.2 times the build relation", func(t *Table) error {
			for _, c := range t.Columns {
				if ovf := overflows(t, c)[0]; ovf != 0 {
					return fmt.Errorf("%s: ovf=%d", c, ovf)
				}
			}
			return nil
		}},
		{"as memory shrinks, overflow counts never fall and response times strictly rise", func(t *Table) error {
			for _, c := range t.Columns {
				ovf := overflows(t, c)
				for i := 1; i < len(ovf); i++ {
					if ovf[i] < ovf[i-1] {
						return fmt.Errorf("%s, %s: ovf=%d after ovf=%d", c, t.Rows[i].Label, ovf[i], ovf[i-1])
					}
				}
				if err := strictly(t, +1, column(t, c), 0); err != nil {
					return fmt.Errorf("%s, %w", c, err)
				}
			}
			return nil
		}},
		{"Local is below Remote at memory ratio 1.2 and above it at 0.2 (the first overflow destroys key locality)", func(t *Table) error {
			at, local, remote := rowLabels(t), column(t, "Local"), column(t, "Remote")
			last := len(at) - 1
			if err := below(at[:1], local[:1], remote[:1]); err != nil {
				return err
			}
			return below(at[last:], remote[last:], local[last:])
		}},
	},
	"fig14": {pageGainsDiminish},
	"fig15": {pageGainsDiminish},

	"aggregate": {
		{"the scalar aggregates speed up with each added processor", func(t *Table) error {
			for _, c := range []string{"count(*)", "min(unique1)"} {
				if err := strictly(t, -1, column(t, c), 0); err != nil {
					return fmt.Errorf("%s, %w", c, err)
				}
			}
			return nil
		}},
		{"a grouped aggregate costs more than either scalar one at every processor count", func(t *Table) error {
			at := rowLabels(t)
			for _, grouped := range []string{"sum by ten", "min by twenty"} {
				for _, scalar := range []string{"count(*)", "min(unique1)"} {
					if err := below(at, column(t, scalar), column(t, grouped)); err != nil {
						return fmt.Errorf("%s vs %s: %w", scalar, grouped, err)
					}
				}
			}
			return nil
		}},
	},
	"hybrid": {
		{"Simple and Hybrid agree while no partition is planned (memory ratio 1.0 and up)", func(t *Table) error {
			for _, r := range t.Rows {
				if ratio := memoryRatio(r.Label); ratio >= 1 && r.Cells[0] != r.Cells[1] {
					return fmt.Errorf("%s: %v vs %v", r.Label, r.Cells[0], r.Cells[1])
				}
			}
			return nil
		}},
		{"Hybrid is slower than Simple at memory ratios 0.8 and 0.6 and faster from 0.5 down", func(t *Table) error {
			simple, hybrid := colIndex(t, "Simple"), colIndex(t, "Hybrid")
			for _, r := range t.Rows {
				s, h := r.Cells[simple].Measured, r.Cells[hybrid].Measured
				switch ratio := memoryRatio(r.Label); {
				case ratio >= 1:
				case ratio > 0.5 && !(s < h):
					return fmt.Errorf("%s: Simple %.4g is not below Hybrid %.4g", r.Label, s, h)
				case ratio <= 0.5 && !(h < s):
					return fmt.Errorf("%s: Hybrid %.4g is not below Simple %.4g", r.Label, h, s)
				}
			}
			return nil
		}},
	},
	"bitvector": {{"Babb filters cut both the response time and the data packets on the ring", func(t *Table) error {
		cells := rowCells(t, "joinABprime")
		plain, filtered := cells[colIndex(t, "no filters")], cells[colIndex(t, "Babb filters")]
		if !(filtered.Measured < plain.Measured) {
			return fmt.Errorf("filtered %.4g s is not below unfiltered %.4g s", filtered.Measured, plain.Measured)
		}
		if pf, pp := packets(filtered), packets(plain); !(pf < pp) {
			return fmt.Errorf("filtered %d packets is not below unfiltered %d", pf, pp)
		}
		return nil
	}}},
	"pagesize-default": {
		{"8 KB pages lower the workload total and the nonindexed selection", func(t *Table) error {
			for _, label := range []string{"TOTAL", "10% nonindexed selection"} {
				if c := rowCells(t, label); !(c[1].Measured < c[0].Measured) {
					return fmt.Errorf("%s: 8 KB %.4g is not below 4 KB %.4g", label, c[1].Measured, c[0].Measured)
				}
			}
			return nil
		}},
		{"each index selection is slower with 8 KB pages, by under 5%", func(t *Table) error {
			for _, label := range []string{"1% clustered index selection", "1% non-clustered index selection"} {
				c := rowCells(t, label)
				if loss := c[1].Measured / c[0].Measured; !(loss > 1 && loss < 1.05) {
					return fmt.Errorf("%s: 8 KB costs %.4g times 4 KB", label, loss)
				}
			}
			return nil
		}},
	},
	"placement": {
		{"the concurrent selections average fastest beside a Remote join", func(t *Table) error {
			return lowestIn(t, "selection avg", "Remote join")
		}},
		{"the Remote join itself finishes first", func(t *Table) error {
			return lowestIn(t, "join", "Remote join")
		}},
	},
	"recovery": {{"log shipping costs time on every row, and under 20%", func(t *Table) error {
		for _, r := range t.Rows {
			if cost := r.Cells[1].Measured / r.Cells[0].Measured; !(cost > 1 && cost < 1.2) {
				return fmt.Errorf("%s: logging costs %.4g times no logging", r.Label, cost)
			}
		}
		return nil
	}}},
	"scale100": {{"speedup and scaleup against 64 processors fall at each doubling (the initiation wall)", func(t *Table) error {
		for _, c := range []string{"speedup vs 64", "scaleup vs 64"} {
			if err := strictly(t, -1, column(t, c), 0); err != nil {
				return fmt.Errorf("%s, %w", c, err)
			}
		}
		return nil
	}}},
	"availability": {{"every row rebuilds, serves queries after the campaign and restores redundancy (rebuild, post q/s and MTTR mean > 0)", func(t *Table) error {
		for _, name := range []string{"rebuild", "post q/s", "MTTR mean"} {
			for i, v := range column(t, name) {
				if !(v > 0) {
					return fmt.Errorf("%s: %s = %.4g", t.Rows[i].Label, name, v)
				}
			}
		}
		return nil
	}}},
	"multiuser": {
		{"sharing changes nothing at MPL 1: the speedup is exactly 1", func(t *Table) error {
			if v := rowCells(t, "MPL 1")[colIndex(t, "speedup")].Measured; v != 1 {
				return fmt.Errorf("speedup %v", v)
			}
			return nil
		}},
		{"shared scans at least double throughput at MPL 8", func(t *Table) error {
			if v := rowCells(t, "MPL 8")[colIndex(t, "speedup")].Measured; !(v >= 2) {
				return fmt.Errorf("speedup %.4g", v)
			}
			return nil
		}},
	},
}

// The facts two views of one sweep share: timesOf reads a speedup view as
// response times, so a claim about the order of times holds on both.
var (
	timeFallsWithProcessors = fact{"every curve's response time falls with each added processor", func(t *Table) error {
		for _, c := range t.Columns {
			if err := strictly(t, -1, timesOf(t, c), 0); err != nil {
				return fmt.Errorf("%s, %w", c, err)
			}
		}
		return nil
	}}
	nearLinearSpeedup = fact{"with n processors (the last row) every curve's speedup is at least 0.75n", func(t *Table) error {
		last := t.Rows[len(t.Rows)-1]
		floor := 0.75 * float64(len(t.Rows))
		for c, cell := range last.Cells {
			if cell.Measured < floor {
				return fmt.Errorf("%s, %s: %.4g < %.4g", t.Columns[c], last.Label, cell.Measured, floor)
			}
		}
		return nil
	}}
	emptyProbeSlows = fact{"the 0% non-clustered selection slows with each added processor (initiation outweighs an empty index probe)", func(t *Table) error {
		return strictly(t, +1, timesOf(t, "0% non-clustered idx"), 0)
	}}
	onePercentIndexSpeedsUp = fact{"the 1% non-clustered selection speeds up with each added processor", func(t *Table) error {
		return strictly(t, -1, timesOf(t, "1% non-clustered idx"), 0)
	}}
	// The disk→CPU transition in table form.
	pageGainsDiminish = fact{"on every curve each page-size doubling gains less than the one before, and the last gains under 10%", func(t *Table) error {
		for _, c := range t.Columns {
			ts := timesOf(t, c)
			prev := math.Inf(1)
			for i := 1; i < len(ts); i++ {
				gain := ts[i-1] / ts[i]
				if !(gain < prev) {
					return fmt.Errorf("%s, %s: gain %.4g after %.4g", c, t.Rows[i].Label, gain, prev)
				}
				prev = gain
			}
			if !(prev < 1.1) {
				return fmt.Errorf("%s: last doubling gains %.4g", c, prev)
			}
		}
		return nil
	}}
	indexedByPageSize = []fact{
		{"the 1% non-clustered selection slows with each page-size doubling from 4 KB", func(t *Table) error {
			return strictly(t, +1, timesOf(t, "1% non-clustered idx"), 1)
		}},
		{"the 10% clustered selection is faster with 32 KB pages than with 2 KB", func(t *Table) error {
			ts := timesOf(t, "10% clustered idx")
			return below(rowLabels(t)[:1], ts[len(ts)-1:], ts[:1])
		}},
		{"the 1% clustered selection is slower with 32 KB pages than with 16 KB", func(t *Table) error {
			ts, last := timesOf(t, "1% clustered idx"), len(t.Rows)-1
			return below(rowLabels(t)[last:], ts[last-1:last], ts[last:])
		}},
	}
)

// checkFacts checks an experiment's facts against its table and returns one
// error per broken claim, each naming the claim. A check that panics — the
// table lacks a row or column the claim reads — breaks its claim.
func checkFacts(id string, t *Table) (errs []error) {
	for _, f := range facts[id] {
		if err := checkFact(f, t); err != nil {
			errs = append(errs, fmt.Errorf("%s: %s: %w", id, f.claim, err))
		}
	}
	return errs
}

func checkFact(f fact, t *Table) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return f.check(t)
}

// wellFormed names the first defect of a table's shape: no rows or columns,
// a row whose cell count is not the column count, or a cell that cannot be a
// measurement (NaN, infinite or negative: the ledger's failed-operation rule).
func wellFormed(t *Table) error {
	if len(t.Rows) == 0 || len(t.Columns) == 0 {
		return errors.New("empty table")
	}
	for _, r := range t.Rows {
		if len(r.Cells) != len(t.Columns) {
			return fmt.Errorf("row %q has %d cells for %d columns", r.Label, len(r.Cells), len(t.Columns))
		}
		for i, c := range r.Cells {
			if math.IsNaN(c.Measured) || math.IsInf(c.Measured, 0) || c.Measured < 0 {
				return fmt.Errorf("cell %q[%d] = %v", r.Label, i, c.Measured)
			}
		}
	}
	return nil
}

// --- reading a table ------------------------------------------------------

func colIndex(t *Table, name string) int {
	for c, n := range t.Columns {
		if n == name {
			return c
		}
	}
	panic(fmt.Sprintf("no column %q", name))
}

// column returns the measured values down the named column.
func column(t *Table, name string) []float64 {
	c := colIndex(t, name)
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Cells[c].Measured
	}
	return out
}

// timesOf returns a column as response times or, on a speedup view, as
// reciprocal speedups, which are proportional to them.
func timesOf(t *Table, name string) []float64 {
	out := column(t, name)
	if t.Unit == "speedup" {
		for i, s := range out {
			out[i] = 1 / s
		}
	}
	return out
}

func rowLabels(t *Table) []string {
	out := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Label
	}
	return out
}

func rowCells(t *Table, label string) []Cell {
	for _, r := range t.Rows {
		if r.Label == label {
			return r.Cells
		}
	}
	panic(fmt.Sprintf("no row %q", label))
}

// lowestIn names the first row whose value in the column is not above the
// named row's.
func lowestIn(t *Table, col, label string) error {
	c := colIndex(t, col)
	low := rowCells(t, label)[c].Measured
	for _, r := range t.Rows {
		if r.Label != label && !(low < r.Cells[c].Measured) {
			return fmt.Errorf("%s, %s: %.4g is not above %s's %.4g", col, r.Label, r.Cells[c].Measured, label, low)
		}
	}
	return nil
}

// memoryRatio parses a memory-sweep row's "memory/smaller relation = R".
func memoryRatio(label string) float64 {
	var r float64
	if _, err := fmt.Sscanf(label, "memory/smaller relation = %f", &r); err != nil {
		panic(fmt.Sprintf("no memory ratio in %q", label))
	}
	return r
}

// packets parses a cell's (pkts=N) annotation.
func packets(c Cell) int {
	var n int
	if _, err := fmt.Sscanf(c.Extra, "pkts=%d", &n); err != nil {
		panic(fmt.Sprintf("no packet count in %q", c.Extra))
	}
	return n
}

// paperCells returns a Table 1-3 row's measured cells, one per relation
// size, on Teradata and on Gamma (paperRows lays out a pair per size).
func paperCells(t *Table, label string) (sizes []string, tera, gamma []float64) {
	cells := rowCells(t, label)
	for c := 0; c+1 < len(t.Columns); c += 2 {
		sizes = append(sizes, strings.TrimSuffix(t.Columns[c], " Tera"))
		tera = append(tera, cells[c].Measured)
		gamma = append(gamma, cells[c+1].Measured)
	}
	return sizes, tera, gamma
}

// overflows parses a column's (ovf=N) annotations.
func overflows(t *Table, name string) []int {
	c := colIndex(t, name)
	out := make([]int, len(t.Rows))
	for i, r := range t.Rows {
		if _, err := fmt.Sscanf(r.Cells[c].Extra, "ovf=%d", &out[i]); err != nil {
			panic(fmt.Sprintf("%s, %s: no overflow count in %q", name, r.Label, r.Cells[c].Extra))
		}
	}
	return out
}

// below names the first position at which a is not below b.
func below(at []string, a, b []float64) error {
	for i := range at {
		if !(a[i] < b[i]) {
			return fmt.Errorf("at %s %.4g is not below %.4g", at[i], a[i], b[i])
		}
	}
	return nil
}

// strictly names the first row, from row from on, at which xs does not move
// in direction dir (+1 rises, -1 falls).
func strictly(t *Table, dir float64, xs []float64, from int) error {
	for i := from + 1; i < len(xs); i++ {
		if !(dir*(xs[i]-xs[i-1]) > 0) {
			return fmt.Errorf("%s: %.4g after %.4g", t.Rows[i].Label, xs[i], xs[i-1])
		}
	}
	return nil
}

// TestFactsComplete: every registered experiment states at least one fact,
// which TestResultDigests checks on the Quick() run, and every fact belongs to
// one.
func TestFactsComplete(t *testing.T) {
	registered := map[string]bool{}
	for _, e := range Experiments() {
		registered[e.ID] = true
		if len(facts[e.ID]) == 0 {
			t.Errorf("%s has no fact", e.ID)
		}
	}
	for id := range facts {
		if !registered[id] {
			t.Errorf("facts for %q, which is not registered", id)
		}
	}
}

// doctored breaks one cell of a real table so that exactly one fact fails:
// the mutation pass showing each claim reads the cells it names.
var doctored = []struct {
	id     string
	fact   int // index into facts[id]
	doctor func(t *Table)
}{
	// Figure 3's 0% non-clustered selection on one and on eight processors
	// swap places.
	{"fig3", 0, func(t *Table) {
		c := colIndex(t, "0% non-clustered idx")
		first, last := &t.Rows[0].Cells[c], &t.Rows[len(t.Rows)-1].Cells[c]
		*first, *last = *last, *first
	}},
	{"aggregate", 0, func(t *Table) { // min(unique1) stalls at 8 processors
		c, n := colIndex(t, "min(unique1)"), len(t.Rows)
		t.Rows[n-1].Cells[c] = t.Rows[n-2].Cells[c]
	}},
	{"aggregate", 1, func(t *Table) { // one processor sums by ten as fast as it counts
		t.Rows[0].Cells[colIndex(t, "sum by ten")].Measured = t.Rows[0].Cells[colIndex(t, "count(*)")].Measured
	}},
	{"hybrid", 0, func(t *Table) { // Hybrid differs with ample memory
		t.Rows[0].Cells[colIndex(t, "Hybrid")].Measured++
	}},
	{"hybrid", 1, func(t *Table) { // Hybrid ties Simple at the smallest memory
		last := t.Rows[len(t.Rows)-1].Cells
		last[colIndex(t, "Hybrid")].Measured = last[colIndex(t, "Simple")].Measured
	}},
	{"bitvector", 0, func(t *Table) { // the filters ship as many packets as none
		t.Rows[0].Cells[colIndex(t, "Babb filters")].Extra = t.Rows[0].Cells[colIndex(t, "no filters")].Extra
	}},
	{"pagesize-default", 0, func(t *Table) { // the 8 KB total ties 4 KB's
		c := rowCells(t, "TOTAL")
		c[1].Measured = c[0].Measured
	}},
	{"pagesize-default", 1, func(t *Table) { // the clustered index loses 6% at 8 KB
		c := rowCells(t, "1% clustered index selection")
		c[1].Measured = c[0].Measured * 1.06
	}},
	{"placement", 0, func(t *Table) { // selections beside a Local join tie Remote's
		c := colIndex(t, "selection avg")
		rowCells(t, "Local join")[c].Measured = rowCells(t, "Remote join")[c].Measured
	}},
	{"placement", 1, func(t *Table) { // the Allnodes join ties Remote's
		c := colIndex(t, "join")
		rowCells(t, "Allnodes join")[c].Measured = rowCells(t, "Remote join")[c].Measured
	}},
	{"recovery", 0, func(t *Table) { // logging makes the append free
		r := t.Rows[len(t.Rows)-1].Cells
		r[1].Measured = r[0].Measured
	}},
	{"scale100", 0, func(t *Table) { // speedup stalls from 128 to 256 processors
		c, n := colIndex(t, "speedup vs 64"), len(t.Rows)
		t.Rows[n-1].Cells[c] = t.Rows[n-2].Cells[c]
	}},
}

// TestFactsCanFail: a fact can fail, and its failure names it. Each doctored
// cell of a real table of the Quick() run breaks exactly the claim it
// targets, and every fact of the seven extensions is targeted.
func TestFactsCanFail(t *testing.T) {
	targeted := map[string]map[int]bool{}
	for _, d := range doctored {
		if targeted[d.id] == nil {
			targeted[d.id] = map[int]bool{}
		}
		targeted[d.id][d.fact] = true
	}
	for _, id := range []string{"aggregate", "hybrid", "bitvector", "pagesize-default", "placement", "recovery", "scale100"} {
		for k := range facts[id] {
			if !targeted[id][k] {
				t.Errorf("%s: no doctored cell breaks %q", id, facts[id][k].claim)
			}
		}
	}
	tables := quick(t).tables()
	for id := range targeted {
		if tables[id] == nil {
			t.Fatalf("experiment %q is not registered", id)
		}
		if errs := checkFacts(id, tables[id]); len(errs) != 0 {
			t.Fatalf("the real table already breaks a fact: %v", errs)
		}
	}
	for _, d := range doctored {
		tbl := cloneTable(tables[d.id])
		d.doctor(tbl)
		claim := facts[d.id][d.fact].claim
		if errs := checkFacts(d.id, tbl); len(errs) != 1 || !strings.Contains(errs[0].Error(), claim) {
			t.Errorf("doctored %s: got %v, want one error naming %q", d.id, errs, claim)
		}
	}
}

// cloneTable copies a table deep enough that doctoring a cell leaves the
// original alone.
func cloneTable(t *Table) *Table {
	c := *t
	c.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		c.Rows[i] = Row{Label: r.Label, Cells: append([]Cell(nil), r.Cells...)}
	}
	return &c
}

// positiveRows requires every cell of the named rows to be a positive time:
// a zero would pass a "faster than" fact without measuring anything.
func positiveRows(t *testing.T, tbl *Table, labels []string) {
	t.Helper()
	for _, label := range labels {
		for c, cell := range rowCells(tbl, label) {
			if !(cell.Measured > 0) {
				t.Errorf("%s, %s, %s: non-positive time %.4g", tbl.ID, label, tbl.Columns[c], cell.Measured)
			}
		}
	}
}

// TestTable1Shape: on the Quick() run, Table 1's five selections that both
// machines run take a positive time on both, so the facts comparing them
// (TestResultDigests) measure something.
func TestTable1Shape(t *testing.T) {
	var both []string
	for _, r := range table1Rows {
		if r.tera != nil {
			both = append(both, r.label)
		}
	}
	positiveRows(t, quick(t).tables()["table1"], both)
}

// TestTable2Shape: on the Quick() run, every Table 2 join takes a positive
// time on both machines.
func TestTable2Shape(t *testing.T) {
	tbl := quick(t).tables()["table2"]
	positiveRows(t, tbl, rowLabels(tbl))
}
