package bench

import (
	"fmt"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
)

// netgenPoint is one (generation, query) measurement: simulated seconds plus
// the bottleneck classification of the query's trace span.
type netgenPoint struct {
	secs    float64
	binding string
	res     string
	util    float64
}

// runNetgen sweeps the named hardware generations (1988 Gamma, a
// GbE/SSD-era build, an RDMA-era build) through the Table 1 selections and
// the joinABprime join on the standard 8+8 machine, tracing each query and
// reporting which resource class bound it. The point of the sweep is the
// migration: the 1988 generation saturates its disks on selections and a
// worker CPU on the join (the §6.2 diagnosis); the faster generations
// collapse disk and wire until the host's serialized control/collection
// path is what binds (§5.2/§6.2 extrapolated forward).
func runNetgen(o Options) *Table {
	gens := config.Generations()
	queries := []string{"1% nonindexed selection", "10% nonindexed selection", "joinABprime (Remote)"}
	nQ := len(queries)

	pts := parMap(o, len(gens)*nQ, func(i int) netgenPoint {
		gen, q := gens[i/nQ], i%nQ
		prm := gen.Params()
		po := o
		po.Params = &prm
		n := o.FigureTuples
		g := newGamma(po, 8, 8, n, 1, heapRel("Bprime", n/10, 7))
		g.m.EnableTrace()
		var res core.Result
		// These selections range over the partitioning attribute.
		sel := func(percent float64) core.SelectQuery {
			return selection{attr: rel.Unique1, percent: percent, path: core.PathHeap}.on(g, n)
		}
		switch q {
		case 0:
			res = g.m.RunSelect(sel(1))
		case 1:
			res = g.m.RunSelect(sel(10))
		default:
			res = g.m.RunJoin(joinABprime(g, rel.Unique1, core.Remote, ampleJoinMemory))
		}
		pt := netgenPoint{secs: res.Elapsed.Seconds()}
		if res.Diag != nil {
			pt.binding, pt.res, pt.util = res.Diag.Binding, res.Diag.Res, res.Diag.Util
		}
		return pt
	})

	t := &Table{
		Title:   "Binding resource by hardware generation (8+8 processors)",
		Unit:    "seconds (annotation = binding resource class)",
		Columns: queries,
	}
	for gi, gen := range gens {
		row := Row{Label: fmt.Sprintf("%s: %s", gen.Name, gen.Desc)}
		var note string
		for q := range queries {
			pt := pts[gi*nQ+q]
			row.Cells = append(row.Cells, Cell{Measured: pt.secs, Extra: pt.binding})
			if note != "" {
				note += ", "
			}
			note += fmt.Sprintf("%s %s-bound (%s %.0f%%)", queries[q], pt.binding, pt.res, 100*pt.util)
		}
		t.Rows = append(t.Rows, row)
		t.Notes = append(t.Notes, gen.Name+": "+note)
	}
	t.Notes = append(t.Notes,
		"Migration: gamma1988 binds on its disks (selections) and a worker CPU (join, §6.2);",
		"faster generations collapse disk and wire, leaving the host's serialized control/collection path binding.")
	return t
}
