package bench

import (
	"fmt"

	"gamma/internal/core"
	"gamma/internal/rel"
)

func init() {
	registerWindowed("fig9", "joinABprime on key attributes vs processors (Figure 9)", runFig9)
	registerWindowed("fig10", "joinABprime on non-key attributes vs processors (Figure 10)", runFig10)
	registerWindowed("fig11", "Speedup of key-attribute joins (Figure 11)", runFig11)
	registerWindowed("fig12", "Speedup of non-key-attribute joins (Figure 12)", runFig12)
	registerWindowed("fig13", "Join overflow: response time vs memory (Figure 13)", runFig13)
	registerWindowed("fig14", "joinAselB vs disk page size (Figure 14)", runFig14)
	registerWindowed("fig15", "Speedup of joinAselB vs disk page size (Figure 15)", runFig15)
}

var joinModes = []core.JoinMode{core.Local, core.Remote, core.AllNodes}

func modeCols() []string { return []string{"Local", "Remote", "Allnodes"} }

// ampleJoinMemory avoids hash-table overflow in the configuration sweeps, as
// the paper did by giving some processors extra memory (§1 footnote).
const ampleJoinMemory = 64 << 20

// joinABprimePoint runs joinABprime on attr with ample memory on a fresh
// d+d machine in the given mode: one point of Figures 9-12, and the
// bitvector ablation's unfiltered reference.
func joinABprimePoint(o Options, d int, mode core.JoinMode, attr rel.Attr) core.Result {
	return shared(o, o.point("joinABprime", d, mode, attr), func() core.Result {
		g := newGamma(o, d, d, o.FigureTuples, 1, heapRel("Bprime", o.FigureTuples/10, 7))
		return g.joinRun(core.JoinQuery{
			Build: core.ScanSpec{Rel: g.rel("Bprime"), Pred: rel.True(), Path: core.PathHeap}, BuildAttr: attr,
			Probe: core.ScanSpec{Rel: g.heap, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: attr,
			Mode:            mode,
			MemPerJoinBytes: ampleJoinMemory,
		})
	})
}

// figJoinData measures joinABprime response times for each (processors,
// mode) point on the given join attribute.
func figJoinData(o Options, attr rel.Attr) (procs []int, series [][]float64) {
	// Every (processors, mode) point builds its own machine — fan them out.
	pts := parMap(o, o.MaxProcs*len(joinModes), func(i int) float64 {
		d, mode := i/len(joinModes)+1, joinModes[i%len(joinModes)]
		return joinABprimePoint(o, d, mode, attr).Elapsed.Seconds()
	})
	series = make([][]float64, len(joinModes))
	for d := 1; d <= o.MaxProcs; d++ {
		procs = append(procs, d)
		for i := range joinModes {
			series[i] = append(series[i], pts[(d-1)*len(joinModes)+i])
		}
	}
	return procs, series
}

func runFig9(o Options) *Table {
	procs, series := figJoinData(o, rel.Unique1)
	return curveTable("fig9", "joinABprime on the partitioning (key) attribute", "seconds",
		procLabels(procs), modeCols(), series,
		[]string{"Expected shape: Local fastest (every input tuple short-circuits), then Allnodes,",
			"then Remote; all identical at one processor (§6.2.1)."})
}

func runFig10(o Options) *Table {
	procs, series := figJoinData(o, rel.Unique2)
	return curveTable("fig10", "joinABprime on a non-partitioning attribute", "seconds",
		procLabels(procs), modeCols(), series,
		[]string{"Expected shape: the mirror image of Figure 9 — Remote fastest, Local slowest,",
			"because short-circuiting no longer helps and Local competes with the selections (§6.2.1)."})
}

// joinSpeedups uses the two-processor configuration as the reference point,
// as the paper does, to avoid skew from single-processor short-circuiting.
func joinSpeedups(procs []int, series [][]float64) [][]float64 {
	refIdx := 0
	for i, d := range procs {
		if d == 2 {
			refIdx = i
		}
	}
	var out [][]float64
	for _, s := range series {
		out = append(out, speedups(s, refIdx, 2))
	}
	return out
}

func runFig11(o Options) *Table {
	procs, series := figJoinData(o, rel.Unique1)
	return curveTable("fig11", "Speedup of key-attribute joinABprime (2-processor reference)", "speedup",
		procLabels(procs), modeCols(), joinSpeedups(procs, series),
		[]string{"Expected shape: near-linear speedup (§6.2.1)."})
}

func runFig12(o Options) *Table {
	procs, series := figJoinData(o, rel.Unique2)
	return curveTable("fig12", "Speedup of non-key-attribute joinABprime (2-processor reference)", "speedup",
		procLabels(procs), modeCols(), joinSpeedups(procs, series), nil)
}

// fig13Ratios sweeps available memory as a fraction of the smaller (build)
// relation, as on the paper's x-axis.
var fig13Ratios = []float64{1.2, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2}

// memJoinPoint runs the key-attribute joinABprime on a fresh 8+8 machine
// with join memory at ratio times the build relation, split over the mode's
// join processors: one point of the Figure 13 sweep, which the hybrid
// ablation repeats per algorithm.
func memJoinPoint(o Options, mode core.JoinMode, algo core.JoinAlgorithm, ratio float64) Cell {
	return shared(o, o.point("memJoin", mode, algo, ratio), func() Cell {
		n := o.FigureTuples
		buildBytes := (n / 10) * 208
		g := newGamma(o, 8, 8, n, 1, heapRel("Bprime", n/10, 7))
		nJoin := len(g.m.JoinNodes(mode))
		res := g.joinRun(core.JoinQuery{
			Build: core.ScanSpec{Rel: g.rel("Bprime"), Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique1,
			Probe: core.ScanSpec{Rel: g.heap, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique1,
			Mode:            mode,
			Algorithm:       algo,
			MemPerJoinBytes: int(ratio * float64(buildBytes) / float64(nJoin)),
		})
		return Cell{Measured: res.Elapsed.Seconds(), Extra: fmt.Sprintf("ovf=%d", res.Overflows)}
	})
}

func runFig13(o Options) *Table {
	t := &Table{
		ID:      "fig13",
		Title:   "Join overflow: joinABprime (key attributes) as memory shrinks",
		Unit:    "seconds; (ovf=N) = overflow resolutions at the most-overflowed site",
		Columns: []string{"Local", "Remote"},
	}
	fig13Modes := []core.JoinMode{core.Local, core.Remote}
	pts := parMap(o, len(fig13Ratios)*len(fig13Modes), func(i int) Cell {
		ratio, mode := fig13Ratios[i/len(fig13Modes)], fig13Modes[i%len(fig13Modes)]
		return memJoinPoint(o, mode, core.SimpleHash, ratio)
	})
	for ri, ratio := range fig13Ratios {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("memory/smaller relation = %.2f", ratio),
			Cells: pts[ri*len(fig13Modes) : (ri+1)*len(fig13Modes)],
		})
	}
	t.Notes = append(t.Notes,
		"Expected shape: flat from zero to ~2 overflows, then rapid deterioration (Simple hash join, §6.2.2);",
		"Local starts below Remote (key-attribute locality) and crosses above it once the first overflow",
		"switches hash functions and destroys that locality.")
	return t
}

func fig14Data(o Options) []float64 {
	n := o.FigureTuples
	return parMap(o, len(pageSizes), func(i int) float64 {
		po := o.withPage(pageSizes[i])
		return shared(po, po.point("fig14"), func() float64 {
			g := newGamma(po, 8, 8, n, 1, heapRel("B", n, 8))
			b := g.rel("B")
			tenPct := pct(rel.Unique2, n, 10)
			res := g.joinRun(core.JoinQuery{
				Build: core.ScanSpec{Rel: b, Pred: tenPct, Path: core.PathHeap}, BuildAttr: rel.Unique2,
				Probe: core.ScanSpec{Rel: g.heap, Pred: tenPct, Path: core.PathHeap}, ProbeAttr: rel.Unique2,
				Mode:            core.Remote,
				MemPerJoinBytes: ampleJoinMemory,
			})
			return res.Elapsed.Seconds()
		})
	})
}

func runFig14(o Options) *Table {
	return curveTable("fig14", "joinAselB (10% selections) vs disk page size (16 query processors)", "seconds",
		pageLabels(), []string{"joinAselB"}, [][]float64{fig14Data(o)},
		[]string{"Expected shape: larger pages help strongly up to 16 KB, then level off —",
			"the join is bounded by the 10% selections of its inputs (§6.2.3)."})
}

func runFig15(o Options) *Table {
	return curveTable("fig15", "Speedup of joinAselB vs disk page size (2 KB reference)", "speedup",
		pageLabels(), []string{"joinAselB"}, [][]float64{speedups(fig14Data(o), 0, 1)}, nil)
}
