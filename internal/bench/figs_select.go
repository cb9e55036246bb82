package bench

import (
	"fmt"

	"gamma/internal/core"
	"gamma/internal/rel"
)

func init() {
	registerWindowed("fig1", "Non-indexed selections vs processors (Figure 1)", runFig1)
	registerWindowed("fig2", "Speedup of non-indexed selections (Figure 2)", runFig2)
	registerWindowed("fig3", "Indexed selections vs processors (Figure 3)", runFig3)
	registerWindowed("fig4", "Speedup of indexed selections (Figure 4)", runFig4)
	registerWindowed("fig5", "Non-indexed selections vs disk page size (Figure 5)", runFig5)
	registerWindowed("fig6", "Speedup vs disk page size, non-indexed (Figure 6)", runFig6)
	registerWindowed("fig7", "Indexed selections vs disk page size (Figure 7)", runFig7)
	registerWindowed("fig8", "Speedup vs disk page size, indexed (Figure 8)", runFig8)
}

// fig1Curves are the non-indexed selectivities of Figures 1-2.
var fig1Curves = []float64{0, 1, 10}

// fig1Data measures response time for each (processors, selectivity) point.
func fig1Data(o Options) (procs []int, data map[float64][]float64) {
	// Every processor count is an independent machine — fan the points out.
	pts := parMap(o, o.MaxProcs, func(i int) []float64 {
		d := i + 1
		return shared(o, o.point("fig1", d), func() []float64 {
			return heapSelects(newGamma(o, d, d, o.FigureTuples, 1), o.FigureTuples, fig1Curves)
		})
	})
	data = map[float64][]float64{}
	for i, pt := range pts {
		procs = append(procs, i+1)
		for ci, sel := range fig1Curves {
			data[sel] = append(data[sel], pt[ci])
		}
	}
	return procs, data
}

// heapSelects runs one non-indexed selection per selectivity, in order, on
// the same machine, and returns their response times.
func heapSelects(g *gammaSetup, n int, sels []float64) []float64 {
	out := make([]float64, len(sels))
	for i, sel := range sels {
		out[i] = g.selectSecs(core.SelectQuery{
			Scan: core.ScanSpec{Rel: g.heap, Pred: pct(rel.Unique2, n, sel), Path: core.PathHeap},
		})
	}
	return out
}

func selCols(sels []float64) []string {
	var cols []string
	for _, s := range sels {
		cols = append(cols, fmt.Sprintf("%g%% sel", s))
	}
	return cols
}

func curveTable(id, title, rowUnit string, rowLabels []string, cols []string, series [][]float64, notes []string) *Table {
	t := &Table{ID: id, Title: title, Unit: rowUnit, Columns: cols, Notes: notes}
	for i, lbl := range rowLabels {
		row := Row{Label: lbl}
		for _, s := range series {
			row.Cells = append(row.Cells, Cell{Measured: s[i]})
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func procLabels(procs []int) []string {
	var out []string
	for _, d := range procs {
		out = append(out, fmt.Sprintf("%d processors with disks", d))
	}
	return out
}

func runFig1(o Options) *Table {
	procs, data := fig1Data(o)
	var series [][]float64
	for _, sel := range fig1Curves {
		series = append(series, data[sel])
	}
	return curveTable("fig1", fmt.Sprintf("Non-indexed selections on the %d-tuple relation", o.FigureTuples),
		"seconds", procLabels(procs), selCols(fig1Curves), series,
		[]string{"Expected shape: response time falls hyperbolically with processors (paper Figure 1)."})
}

// speedups converts a response-time series to speedup relative to its first
// point (optionally scaled so the reference point has the given value).
func speedups(times []float64, refIdx int, refValue float64) []float64 {
	out := make([]float64, len(times))
	for i, v := range times {
		if v > 0 {
			out[i] = refValue * times[refIdx] / v
		}
	}
	return out
}

func runFig2(o Options) *Table {
	procs, data := fig1Data(o)
	var series [][]float64
	for _, sel := range fig1Curves {
		series = append(series, speedups(data[sel], 0, 1))
	}
	return curveTable("fig2", "Speedup of non-indexed selections (1-processor reference)",
		"speedup", procLabels(procs), selCols(fig1Curves), series,
		[]string{
			"Expected shape: near-linear speedup; the 10% curve trails because short-circuiting",
			"diminishes as processors are added and the Unibus path to the network saturates (§5.2.1).",
		})
}

// fig3Curves: the indexed selections of Figures 3-4.
type idxCurve struct {
	name string
	run  func(g *gammaSetup, n int) float64
}

var fig3Curves = []idxCurve{
	{"1% clustered idx", func(g *gammaSetup, n int) float64 {
		return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.idx, Pred: pct(rel.Unique1, n, 1), Path: core.PathClustered}})
	}},
	{"10% clustered idx", func(g *gammaSetup, n int) float64 {
		return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.idx, Pred: pct(rel.Unique1, n, 10), Path: core.PathClustered}})
	}},
	{"1% non-clustered idx", func(g *gammaSetup, n int) float64 {
		return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.idx, Pred: pct(rel.Unique2, n, 1), Path: core.PathNonClustered}})
	}},
	{"0% non-clustered idx", func(g *gammaSetup, n int) float64 {
		return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.idx, Pred: pct(rel.Unique2, n, 0), Path: core.PathNonClustered}})
	}},
}

// idxSelects runs the curves' selections, in order, on the same machine.
func idxSelects(g *gammaSetup, n int, curves []idxCurve) []float64 {
	out := make([]float64, len(curves))
	for i, c := range curves {
		out[i] = c.run(g, n)
	}
	return out
}

func fig3Data(o Options) (procs []int, series [][]float64) {
	pts := parMap(o, o.MaxProcs, func(i int) []float64 {
		d := i + 1
		return shared(o, o.point("fig3", d), func() []float64 {
			return idxSelects(newGamma(o, d, d, o.FigureTuples, 1), o.FigureTuples, fig3Curves)
		})
	})
	series = make([][]float64, len(fig3Curves))
	for i, pt := range pts {
		procs = append(procs, i+1)
		for ci := range fig3Curves {
			series[ci] = append(series[ci], pt[ci])
		}
	}
	return procs, series
}

func idxCols() []string {
	var out []string
	for _, c := range fig3Curves {
		out = append(out, c.name)
	}
	return out
}

func runFig3(o Options) *Table {
	procs, series := fig3Data(o)
	return curveTable("fig3", "Indexed selections vs processors", "seconds",
		procLabels(procs), idxCols(), series,
		[]string{"Expected shape: the 0% non-clustered curve RISES with processors — operator",
			"initiation outweighs the 1-2 I/Os of an empty index probe (§5.2.1, 0.25s -> 0.58s)."})
}

func runFig4(o Options) *Table {
	procs, series := fig3Data(o)
	var sp [][]float64
	for _, s := range series {
		sp = append(sp, speedups(s, 0, 1))
	}
	return curveTable("fig4", "Speedup of indexed selections (1-processor reference)", "speedup",
		procLabels(procs), idxCols(), sp,
		[]string{"Expected shape: only the 1% non-clustered selection comes close to linear speedup;",
			"10% clustered saturates the network interface; 0% degrades below 1 (§5.2.1)."})
}

// --- page-size sweeps (Figures 5-8) --------------------------------------

var pageSizes = []int{2048, 4096, 8192, 16384, 32768}

func pageLabels() []string {
	var out []string
	for _, s := range pageSizes {
		out = append(out, fmt.Sprintf("%d KB pages", s/1024))
	}
	return out
}

var fig5Curves = []float64{0, 1, 10, 100}

func fig5Data(o Options) [][]float64 {
	pts := parMap(o, len(pageSizes), func(i int) []float64 {
		po := o.withPage(pageSizes[i]) // the page size reaches the key through params
		return shared(po, po.point("fig5"), func() []float64 {
			return heapSelects(newGamma(po, 8, 8, o.FigureTuples, 1), o.FigureTuples, fig5Curves)
		})
	})
	series := make([][]float64, len(fig5Curves))
	for _, pt := range pts {
		for ci := range fig5Curves {
			series[ci] = append(series[ci], pt[ci])
		}
	}
	return series
}

func runFig5(o Options) *Table {
	return curveTable("fig5", "Non-indexed selections vs disk page size (8 processors)", "seconds",
		pageLabels(), selCols(fig5Curves), fig5Data(o),
		[]string{"Expected shape: disk-bound at 2 KB pages, CPU-bound by 16 KB; beyond 8 KB the",
			"gain is small, and the 10%/100% curves trail as the network interface saturates (§5.2.2)."})
}

func runFig6(o Options) *Table {
	var sp [][]float64
	for _, s := range fig5Data(o) {
		sp = append(sp, speedups(s, 0, 1))
	}
	return curveTable("fig6", "Speedup vs disk page size, non-indexed (2 KB reference)", "speedup",
		pageLabels(), selCols(fig5Curves), sp, nil)
}

var fig7Curves = []idxCurve{
	fig3Curves[0], // 1% clustered
	fig3Curves[1], // 10% clustered
	fig3Curves[2], // 1% non-clustered
}

func fig7Data(o Options) [][]float64 {
	pts := parMap(o, len(pageSizes), func(i int) []float64 {
		po := o.withPage(pageSizes[i])
		return shared(po, po.point("fig7"), func() []float64 {
			return idxSelects(newGamma(po, 8, 8, o.FigureTuples, 1), o.FigureTuples, fig7Curves)
		})
	})
	series := make([][]float64, len(fig7Curves))
	for _, pt := range pts {
		for ci := range fig7Curves {
			series[ci] = append(series[ci], pt[ci])
		}
	}
	return series
}

func fig7Cols() []string {
	var out []string
	for _, c := range fig7Curves {
		out = append(out, c.name)
	}
	return out
}

func runFig7(o Options) *Table {
	return curveTable("fig7", "Indexed selections vs disk page size (8 processors)", "seconds",
		pageLabels(), fig7Cols(), fig7Data(o),
		[]string{"Expected shape: larger pages DEGRADE the 1% non-clustered selection (every tuple",
			"costs two index pages plus one data page, and transfer time grows); the clustered",
			"10% improves; clustered 1% worsens slightly past 16 KB (§5.2.2)."})
}

func runFig8(o Options) *Table {
	var sp [][]float64
	for _, s := range fig7Data(o) {
		sp = append(sp, speedups(s, 0, 1))
	}
	return curveTable("fig8", "Speedup vs disk page size, indexed (2 KB reference)", "speedup",
		pageLabels(), fig7Cols(), sp, nil)
}
