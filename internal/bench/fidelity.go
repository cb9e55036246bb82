package bench

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Score is exp(mean |ln(measured/paper)|) - 1 over the cells added to it: 0
// is the paper's numbers, 0.25 a typical cell off by x1.25 either way. Over
// the quick suite it is the benchmark ledger's paper_err_gmean.
type Score struct {
	sumAbsLog float64
	Cells     int
}

// Add scores c if the paper publishes its value and c was measured, and says so.
func (s *Score) Add(c Cell) bool {
	if c.Paper == 0 || c.Measured <= 0 {
		return false
	}
	s.sumAbsLog += math.Abs(math.Log(c.Measured / c.Paper))
	s.Cells++
	return true
}

// Value is the score, 0 over no cells.
func (s Score) Value() float64 {
	if s.Cells == 0 {
		return 0
	}
	return math.Exp(s.sumAbsLog/float64(s.Cells)) - 1
}

// RenderSuite writes what gammabench prints for a suite run: every report's
// table, then, if any published a paper value, the fidelity footer. It holds
// a Score per table and column, per table and in total, and the five cells
// furthest from the paper. The quick suite's sizes make the ledger's total;
// any other size (the paper's 1M column) is totalled apart, never folded in.
func RenderSuite(w io.Writer, reports []Report) {
	type cell struct {
		where string
		c     Cell
	}
	var body strings.Builder
	var cells []cell
	var total [2]Score
	var sizes [2][]string // the sizes each total covers
	line := func(label string, s Score, prec int) {
		if s.Cells > 0 {
			fmt.Fprintf(&body, "%-46s %6d %8.*f\n", label, s.Cells, prec, s.Value())
		}
	}
	at := func(g int) string { return "at " + strings.Join(sizes[g], " and ") + " tuples" }
	for _, r := range reports {
		t := r.Table
		t.Render(w)
		cols := make([]Score, len(t.Columns))
		var tbl [2]Score
		for _, row := range t.Rows {
			for j, c := range row.Cells {
				if !cols[j].Add(c) {
					continue
				}
				n, _, _ := strings.Cut(t.Columns[j], " ")
				g := 1
				if size, _ := strconv.Atoi(n); slices.Contains(Quick().Sizes, size) {
					g = 0
				}
				if !slices.Contains(sizes[g], n) {
					sizes[g] = append(sizes[g], n)
				}
				tbl[g].Add(c)
				total[g].Add(c)
				cells = append(cells, cell{fmt.Sprintf("%s %s, %s", t.ID, row.Label, t.Columns[j]), c})
			}
		}
		for j, s := range cols {
			line(t.ID+"  "+t.Columns[j], s, 3)
		}
		for g, s := range tbl {
			line(t.ID+"  "+at(g), s, 3)
		}
	}
	if len(cells) == 0 {
		return
	}
	for g, s := range total {
		line("total  "+at(g), s, 4)
	}
	off := func(c Cell) float64 { return math.Abs(math.Log(c.Measured / c.Paper)) }
	slices.SortStableFunc(cells, func(a, b cell) int { return cmp.Compare(off(b.c), off(a.c)) })
	for _, c := range cells[:min(5, len(cells))] {
		fmt.Fprintf(&body, "   worst: %s: %.2f [%.2f], x%.2f\n", c.where, c.c.Measured, c.c.Paper, c.c.Measured/c.c.Paper)
	}
	fmt.Fprintf(w, "== fidelity: exp(mean |ln(measured/paper)|) - 1 over the cells with a published value ==\n"+
		"   (0 = the paper's numbers; sizes the quick suite does not run are totalled apart)\n"+
		"%-46s %6s %8s\n%s\n", "", "cells", "score", body.String())
}
