package bench

import (
	"fmt"
	"slices"

	"gamma/internal/core"
	"gamma/internal/rel"
)

// runRecovery quantifies the full-recovery machinery §8 announces: the same
// selection and update workload with and without log shipping to the
// recovery server. The paper notes Gamma's numbers benefit from its lack of
// full recovery (§4, §7) — this measures how much.
func runRecovery(o Options) *Table {
	t := &Table{
		Title:   "Log shipping to a recovery server: off vs on",
		Unit:    "seconds",
		Columns: []string{"no logging", "with recovery server"},
	}
	n := o.FigureTuples
	type wl struct {
		label string
		run   func(g *gammaSetup) float64
	}
	workloads := []wl{
		{"10% nonindexed selection (stored)", func(g *gammaSetup) float64 { return g.selectSecs(heapSel(10).on(g, n)) }},
		{"1% clustered index selection (stored)", func(g *gammaSetup) float64 { return g.selectSecs(clusteredSel(1).on(g, n)) }},
		{"append 1 tuple (one index)", func(g *gammaSetup) float64 {
			var tp rel.Tuple
			tp.Set(rel.Unique1, int32(n+3))
			tp.Set(rel.Unique2, int32(n+3))
			return g.m.RunUpdate(core.UpdateQuery{Rel: g.idx, Kind: core.AppendTuple, Tuple: tp}).Elapsed.Seconds()
		}},
	}
	t.Rows = parMap(o, len(workloads), func(i int) Row {
		w := workloads[i]
		row := Row{Label: w.label}
		for _, enable := range []bool{false, true} {
			g := newGamma(o, 8, 8, n, 1)
			if enable {
				g.m.EnableRecovery()
			}
			row.Cells = append(row.Cells, Cell{Measured: w.run(g)})
		}
		return row
	})
	t.Notes = append(t.Notes,
		"Log records for stored result tuples and update images ship to a dedicated recovery-server",
		"processor in page-sized batches; commit points force the tail of the log (§8 future work, built).")
	return t
}

// runPlacement validates the expectation §6.2.1 records for "future
// multiuser benchmarks": offloading join operators to the diskless
// processors lets the disk processors support concurrent selections better.
func runPlacement(o Options) *Table {
	t := &Table{
		Title:   "joinABprime concurrent with 1% selections: Local vs Remote placement",
		Unit:    "seconds",
		Columns: []string{"join", "selection avg"},
	}
	n := o.FigureTuples
	t.Rows = parMap(o, len(joinModes), func(i int) Row {
		mode := joinModes[i]
		g := newGamma(o, 8, 8, n, 1, heapRel("Bprime", n/10, 7))
		join := joinABprime(g, rel.Unique2, mode, ampleJoinMemory)
		sel := heapSel(1).on(g, n)
		rs := g.m.RunConcurrent([]core.ConcurrentQuery{
			{Join: &join}, {Select: &sel}, {Select: &sel},
		})
		label := map[core.JoinMode]string{core.Local: "Local join", core.Remote: "Remote join", core.AllNodes: "Allnodes join"}[mode]
		return Row{Label: label, Cells: []Cell{
			{Measured: rs[0].Elapsed.Seconds()},
			{Measured: (rs[1].Elapsed.Seconds() + rs[2].Elapsed.Seconds()) / 2},
		}}
	})
	t.Notes = append(t.Notes,
		"Two concurrent 1% selections run alongside joinABprime (non-key attributes).",
		"Expected: selections finish fastest when the join runs Remote — §6.2.1's deferred expectation.")
	return t
}

// aggregates measures scalar and grouped aggregates vs processors. The
// paper ran these experiments but deferred the numbers to [DEWI88]. Scalar
// aggregates speed up like selections, since aggregation is pushed below the
// network. A grouped aggregate hash-partitions its ten or twenty groups over
// the aggregate sites, so its time follows the busiest site's group count:
// it rises where an added processor leaves that site more groups (ten groups
// give 3, 4, 3 at 6, 7, 8 processors), as it would have in Gamma.
var aggregates = figure{
	title: "Aggregates on the %d-tuple relation vs processors",
	sweep: sweep{
		name: "aggregates", axis: byProcessors, machines: 1,
		curves: []string{"count(*)", "min(unique1)", "sum by ten", "min by twenty"},
		measure: func(o Options, d, _ int) []core.Result {
			g := newGamma(o, d, d, o.FigureTuples, 1)
			agg := func(fn core.AggFn, by *rel.Attr) core.Result {
				a := g.m.RunAgg(core.AggQuery{Scan: scanAll(g.heap), Fn: fn, Attr: rel.Unique1, GroupBy: by, Mode: core.Remote})
				return core.Result{Elapsed: a.Elapsed}
			}
			ten, twenty := rel.Ten, rel.Twenty
			return []core.Result{agg(core.Count, nil), agg(core.Min, nil), agg(core.Sum, &ten), agg(core.Min, &twenty)}
		},
	},
	notes: []string{
		"Scalar aggregates are folded at the scan sites (one partial per site crosses the network);",
		"grouped aggregates hash-partition tuples on the grouping attribute across the diskless processors."},
}

// runHybrid repeats the Figure 13 memory sweep with both join algorithms.
func runHybrid(o Options) *Table {
	t := &Table{
		Title:   "joinABprime (Remote) as memory shrinks: Simple vs Hybrid hash join",
		Unit:    "seconds; (ovf=N) = overflow resolutions at the most-overflowed site",
		Columns: []string{"Simple", "Hybrid"},
	}
	t.Rows = parMap(o, len(fig13Ratios), func(i int) Row {
		ratio := fig13Ratios[i]
		return Row{
			Label: fmt.Sprintf("memory/smaller relation = %.2f", ratio),
			Cells: []Cell{
				memJoinPoint(o, core.Remote, core.SimpleHash, ratio), // Figure 13's Remote column
				memJoinPoint(o, core.Remote, core.HybridHash, ratio),
			},
		}
	})
	t.Notes = append(t.Notes,
		"Measured: identical while no partition is planned (ratio 1.0 and up). At 0.8 and 0.6 Hybrid is slower:",
		"it plans equal-size partitions up front and spools all but one, where Simple's first overflows spool",
		"an eighth of the keys each. From 0.5 down Hybrid wins: each spilled partition is written and read once",
		"while Simple re-spools every pass — the replacement §8 announces.")
	return t
}

// runBitVector measures joinABprime with and without Babb filters.
func runBitVector(o Options) *Table {
	t := &Table{
		Title:   "joinABprime (Remote, non-key attributes) with and without bit-vector filters",
		Unit:    "seconds; (pkts=N) = data packets on the ring",
		Columns: []string{"no filters", "Babb filters"},
	}
	// Unfiltered, this is Figure 10's 8-processor Remote point.
	plain := nonKeyJoinByProcessors.point(o, 8, slices.Index(joinModes, core.Remote))[0]
	n := o.FigureTuples
	g := newGamma(o, 8, 8, n, 1, heapRel("Bprime", n/10, 7))
	q := joinABprime(g, rel.Unique2, core.Remote, ampleJoinMemory)
	q.UseBitFilter = true
	filtered := g.joinRun(q)
	t.Rows = append(t.Rows, Row{Label: "joinABprime", Cells: []Cell{
		{Measured: plain.Elapsed.Seconds(), Extra: fmt.Sprintf("pkts=%d", plain.Counters.Net.DataPackets)},
		{Measured: filtered.Elapsed.Seconds(), Extra: fmt.Sprintf("pkts=%d", filtered.Counters.Net.DataPackets)},
	}})
	t.Notes = append(t.Notes,
		"Filters drop probe tuples with no possible match before they reach the network (§2);",
		"the paper's measured runs did not enable them, which is why joinABprime ships all of A.")
	return t
}

// runPageSizeDefault scores the §8 recommendation to move the default page
// size from 4 KB to 8 KB: better for scans and joins, slightly worse for
// non-clustered index selections.
func runPageSizeDefault(o Options) *Table {
	t := &Table{
		Title:   "Default page size: 4 KB vs 8 KB across the selection workload",
		Unit:    "seconds",
		Columns: []string{"4 KB", "8 KB"},
	}
	n := o.FigureTuples
	workloads := []struct {
		label string
		query selection
	}{
		{"10% nonindexed selection", heapSel(10)},
		{"1% clustered index selection", clusteredSel(1)},
		{"1% non-clustered index selection", nonClusteredSel(1)},
	}
	sums := [2]float64{}
	for _, w := range workloads {
		row := Row{Label: w.label}
		for i, ps := range []int{4096, 8192} {
			g := newGamma(o.withPage(ps), 8, 8, n, 1)
			secs := g.selectSecs(w.query.on(g, n))
			sums[i] += secs
			row.Cells = append(row.Cells, Cell{Measured: secs})
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, Row{Label: "TOTAL", Cells: []Cell{{Measured: sums[0]}, {Measured: sums[1]}}})
	t.Notes = append(t.Notes,
		"§8 concludes the default should move from 4 KB to 8 KB: scans gain, index paths lose a little.")
	return t
}
