package bench

import (
	"fmt"
	"strconv"
	"strings"

	"gamma/internal/core"
	"gamma/internal/rel"
)

// axis is what a sweep varies: the labels of its x values and, for the x-th,
// the options and the number of processors with disks of the machines there.
type axis struct {
	labels func(o Options) []string
	at     func(o Options, x int) (Options, int)
}

// byProcessors grows the machine from 1+1 to MaxProcs+MaxProcs processors.
var byProcessors = axis{
	labels: func(o Options) []string {
		out := make([]string, o.MaxProcs)
		for i := range out {
			out[i] = fmt.Sprintf("%d processors with disks", i+1)
		}
		return out
	},
	at: func(o Options, x int) (Options, int) { return o, x + 1 },
}

var pageSizes = []int{2048, 4096, 8192, 16384, 32768}

// byPageSize varies the disk page size of the standard 8+8 machine.
var byPageSize = axis{
	labels: func(Options) []string {
		out := make([]string, len(pageSizes))
		for i, s := range pageSizes {
			out[i] = fmt.Sprintf("%d KB pages", s/1024)
		}
		return out
	},
	at: func(o Options, x int) (Options, int) { return o.withPage(pageSizes[x]), 8 },
}

// sweep is a family of curves measured along one axis, which the paper plots
// twice: once in seconds and once as speedups. A data point is one fresh
// machine: measure builds the m-th of the machines at an x — d processors
// with disks and d without — runs that machine's share of the curves on it,
// in curve order, and returns their results. The selection sweeps run every
// curve of an x on one machine; the join sweeps give each mode its own.
type sweep struct {
	name     string // names the sweep's points in the point cache: unique per sweep
	axis     axis
	curves   []string
	machines int // per x; divides len(curves)
	measure  func(o Options, d, m int) []core.Result
}

// point is one data point of the sweep, simulated once per suite run
// whichever experiments plot it.
func (s sweep) point(o Options, d, m int) []core.Result {
	return shared(o, o.point(s.name, d, m), func() []core.Result { return s.measure(o, d, m) })
}

// run measures the sweep: every point is an independent machine, so they fan
// out. series[c][x] is curve c's response time in seconds at labels[x].
func (s sweep) run(o Options) (labels []string, series [][]float64) {
	labels = s.axis.labels(o)
	pts := parMap(o, len(labels)*s.machines, func(i int) []core.Result {
		po, d := s.axis.at(o, i/s.machines)
		return s.point(po, d, i%s.machines)
	})
	series = make([][]float64, len(s.curves))
	for i, pt := range pts {
		for j, r := range pt {
			c := i%s.machines*len(pt) + j
			series[c] = append(series[c], r.Elapsed.Seconds())
		}
	}
	return labels, series
}

// selectionsSweep runs the given selections, in order, on one machine per x
// loaded with the figure relation.
func selectionsSweep(name string, ax axis, sels ...selection) sweep {
	s := sweep{name: name, axis: ax, machines: 1}
	for _, q := range sels {
		s.curves = append(s.curves, q.String())
	}
	s.measure = func(o Options, d, _ int) []core.Result {
		g := newGamma(o, d, d, o.FigureTuples, 1)
		out := make([]core.Result, len(sels))
		for i, q := range sels {
			out[i] = g.selectRun(q.on(g, o.FigureTuples))
		}
		return out
	}
	return s
}

var joinModes = []core.JoinMode{core.Local, core.Remote, core.AllNodes}

// joinABprimeSweep runs joinABprime on attr with ample memory, one machine
// per (processors, mode): the points of Figures 9-12, one of which is the
// bitvector ablation's unfiltered reference.
func joinABprimeSweep(attr rel.Attr) sweep {
	return sweep{
		name: fmt.Sprint("joinABprimeByProcessors on ", attr), axis: byProcessors,
		curves: []string{"Local", "Remote", "Allnodes"}, machines: len(joinModes),
		measure: func(o Options, d, m int) []core.Result {
			g := newGamma(o, d, d, o.FigureTuples, 1, heapRel("Bprime", o.FigureTuples/10, 7))
			return []core.Result{g.joinRun(joinABprime(g, attr, joinModes[m], ampleJoinMemory))}
		},
	}
}

var (
	heapByProcessors = selectionsSweep("heapByProcessors", byProcessors, heapSel(0), heapSel(1), heapSel(10))
	idxByProcessors  = selectionsSweep("idxByProcessors", byProcessors,
		clusteredSel(1), clusteredSel(10), nonClusteredSel(1), nonClusteredSel(0))
	heapByPageSize = selectionsSweep("heapByPageSize", byPageSize, heapSel(0), heapSel(1), heapSel(10), heapSel(100))
	idxByPageSize  = selectionsSweep("idxByPageSize", byPageSize,
		clusteredSel(1), clusteredSel(10), nonClusteredSel(1))

	keyJoinByProcessors    = joinABprimeSweep(rel.Unique1)
	nonKeyJoinByProcessors = joinABprimeSweep(rel.Unique2)

	joinAselBByPageSize = sweep{
		name: "joinAselBByPageSize", axis: byPageSize, curves: []string{"joinAselB"}, machines: 1,
		measure: func(o Options, d, _ int) []core.Result {
			n := o.FigureTuples
			g := newGamma(o, d, d, n, 1, heapRel("B", n, 8))
			return []core.Result{g.joinRun(joinAselB(g, n, rel.Unique2, ampleJoinMemory))}
		},
	}
)

// figure plots a sweep: response times in seconds or, with ref set, speedups
// scaled so that the ref-th x reads ref. The joins take the two-processor
// configuration as their reference, as the paper does, to avoid skew from
// single-processor short-circuiting.
type figure struct {
	title string // a %d stands for the figure relation's cardinality
	sweep sweep
	ref   int
	notes []string
}

// Figures 1-12, 14 and 15. The even-numbered ones up to 12, and 15, are the
// speedup views of the sweeps their neighbours plot in seconds.
var (
	fig1 = figure{title: "Non-indexed selections on the %d-tuple relation", sweep: heapByProcessors, notes: []string{
		"Expected shape: response time falls hyperbolically with processors (paper Figure 1)."}}
	fig2 = figure{title: "Speedup of non-indexed selections (1-processor reference)", sweep: heapByProcessors, ref: 1, notes: []string{
		"Expected shape: near-linear speedup; the 10% curve trails because short-circuiting",
		"diminishes as processors are added and the Unibus path to the network saturates (§5.2.1)."}}
	fig3 = figure{title: "Indexed selections vs processors", sweep: idxByProcessors, notes: []string{
		"Expected shape: the 0% non-clustered curve RISES with processors — operator",
		"initiation outweighs the 1-2 I/Os of an empty index probe (§5.2.1, 0.25s -> 0.58s)."}}
	fig4 = figure{title: "Speedup of indexed selections (1-processor reference)", sweep: idxByProcessors, ref: 1, notes: []string{
		"Expected shape: only the 1% non-clustered selection comes close to linear speedup;",
		"10% clustered saturates the network interface; 0% degrades below 1 (§5.2.1)."}}
	fig5 = figure{title: "Non-indexed selections vs disk page size (8 processors)", sweep: heapByPageSize, notes: []string{
		"Expected shape: disk-bound at 2 KB pages, CPU-bound by 16 KB; beyond 8 KB the",
		"gain is small, and the 10%/100% curves trail as the network interface saturates (§5.2.2)."}}
	fig6 = figure{title: "Speedup vs disk page size, non-indexed (2 KB reference)", sweep: heapByPageSize, ref: 1}
	fig7 = figure{title: "Indexed selections vs disk page size (8 processors)", sweep: idxByPageSize, notes: []string{
		"Expected shape: larger pages DEGRADE the 1% non-clustered selection (every tuple",
		"costs two index pages plus one data page, and transfer time grows); the clustered",
		"10% improves; clustered 1% worsens slightly past 16 KB (§5.2.2)."}}
	fig8 = figure{title: "Speedup vs disk page size, indexed (2 KB reference)", sweep: idxByPageSize, ref: 1}
	fig9 = figure{title: "joinABprime on the partitioning (key) attribute", sweep: keyJoinByProcessors, notes: []string{
		"Paper (§6.2.1): Local fastest (every input tuple short-circuits), then Allnodes, then Remote.",
		"Known deviation: here Allnodes runs below Local, its doubled join CPUs outweighing its network cost."}}
	fig10 = figure{title: "joinABprime on a non-partitioning attribute", sweep: nonKeyJoinByProcessors, notes: []string{
		"Expected shape: the mirror image of Figure 9 — Remote fastest, Local slowest,",
		"because short-circuiting no longer helps and Local competes with the selections (§6.2.1)."}}
	fig11 = figure{title: "Speedup of key-attribute joinABprime (2-processor reference)", sweep: keyJoinByProcessors, ref: 2, notes: []string{
		"Expected shape: near-linear speedup (§6.2.1)."}}
	fig12 = figure{title: "Speedup of non-key-attribute joinABprime (2-processor reference)", sweep: nonKeyJoinByProcessors, ref: 2}
	fig14 = figure{title: "joinAselB (10% selections) vs disk page size (16 query processors)", sweep: joinAselBByPageSize, notes: []string{
		"Expected shape: larger pages help strongly up to 16 KB, then level off —",
		"the join is bounded by the 10% selections of its inputs (§6.2.3)."}}
	fig15 = figure{title: "Speedup of joinAselB vs disk page size (2 KB reference)", sweep: joinAselBByPageSize, ref: 1}
)

// table regenerates the figure as a table: a row per x, a column per curve.
func (f figure) table(o Options) *Table {
	labels, series := f.sweep.run(o)
	t := &Table{
		Title:   strings.Replace(f.title, "%d", strconv.Itoa(o.FigureTuples), 1),
		Unit:    "seconds",
		Columns: f.sweep.curves,
		Notes:   f.notes,
	}
	if f.ref > 0 {
		t.Unit = "speedup"
		for c, s := range series {
			series[c] = speedups(s, min(f.ref, len(s))-1, float64(f.ref))
		}
	}
	for x, label := range labels {
		row := Row{Label: label}
		for _, s := range series {
			row.Cells = append(row.Cells, Cell{Measured: s[x]})
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// speedups converts a response-time series to speedup relative to its
// refIdx-th point, scaled so the reference point has the given value.
func speedups(times []float64, refIdx int, refValue float64) []float64 {
	out := make([]float64, len(times))
	for i, v := range times {
		if v > 0 {
			out[i] = refValue * times[refIdx] / v
		}
	}
	return out
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
		joinNodes, _ := g.m.JoinNodes(mode) // a fresh machine has every processor up
		nJoin := len(joinNodes)
		q := joinABprime(g, rel.Unique1, mode, int(ratio*float64(buildBytes)/float64(nJoin)))
		q.Algorithm = algo
		res := g.joinRun(q)
		return Cell{Measured: res.Elapsed.Seconds(), Extra: fmt.Sprintf("ovf=%d", res.Overflows)}
	})
}

func runFig13(o Options) *Table {
	t := &Table{
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
