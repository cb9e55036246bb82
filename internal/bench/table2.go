package bench

import (
	"fmt"

	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/teradata"
)

var paperTable2 = map[string][3][2]float64{
	"joinABprime, non-key join attribute":   {{34.9, 6.5}, {321.8, 47.6}, {3419.4, 2938.2}},
	"joinAselB, non-key join attribute":     {{35.6, 5.1}, {331.7, 34.9}, {3534.5, 703.1}},
	"joinCselAselB, non-key join attribute": {{27.8, 7.0}, {191.8, 38.0}, {2032.7, 731.2}},
	"joinABprime, key join attribute":       {{22.2, 5.7}, {131.3, 45.6}, {1265.1, 2926.7}},
	"joinAselB, key join attribute":         {{25.0, 5.0}, {170.3, 34.1}, {1584.3, 737.7}},
	"joinCselAselB, key join attribute":     {{23.8, 7.2}, {156.7, 37.4}, {1509.6, 712.8}},
}

func runTable2(o Options) *Table {
	t := &Table{Title: "Join Queries (execution times in seconds)", Unit: "seconds"}
	queries := []string{"joinABprime", "joinAselB", "joinCselAselB"}
	attrs := []struct {
		name string
		attr rel.Attr
	}{
		{"non-key join attribute", rel.Unique2},
		{"key join attribute", rel.Unique1},
	}
	var labels []string
	for _, av := range attrs {
		for _, qn := range queries {
			labels = append(labels, qn+", "+av.name)
		}
	}
	paperRows(o, t, labels, paperTable2, func(n int) func() [][2]Cell {
		joinRels := []relSpec{heapRel("Bprime", n/10, 7), heapRel("B", n, 8), heapRel("C", n/10, 9)}
		ts := newTera(o, n, 1, joinRels...)
		g := &gammaSetup{m: o.gammaMachine(8, 8, append([]relSpec{heapRel("Aheap", n, 1)}, joinRels...))}
		g.heap = g.rel("Aheap")
		return func() [][2]Cell {
			var cells [][2]Cell
			for _, av := range attrs {
				// Remote mode on the machine's default join memory, which the
				// million-tuple build relations overflow as they did in the paper.
				gamma := []core.JoinQuery{
					joinABprime(g, av.attr, core.Remote, 0),
					joinAselB(g, n, av.attr, 0),
					joinCselAselB(g, n, av.attr),
				}
				for qi, qn := range queries {
					tres := ts.m.RunJoin(teraJoinQuery(qn, n, av.attr, ts))
					gres := g.joinRun(gamma[qi])
					extra := ""
					if gres.Overflows > 0 {
						extra = fmt.Sprintf("ovf=%d", gres.Overflows)
					}
					cells = append(cells, [2]Cell{
						{Measured: tres.Elapsed.Seconds()},
						{Measured: gres.Elapsed.Seconds(), Extra: extra},
					})
				}
			}
			return cells
		}
	})
	t.Notes = append(t.Notes,
		"Gamma joins run in Remote mode (§6); overflow counts shown as ovf=N (max per site).",
		"Teradata joinAselB has no selection propagation; Gamma's optimizer reduces it to joinselAselB (§6.1).")
	return t
}

// teraJoinQuery maps a paper join query onto the Teradata machine.
func teraJoinQuery(name string, n int, attr rel.Attr, ts *teraSetup) teradata.JoinQuery {
	tenPct := pct(attr, n, 10)
	bprime, b, c := ts.extra["Bprime"], ts.extra["B"], ts.extra["C"]
	switch name {
	case "joinABprime":
		return teradata.JoinQuery{
			R1: ts.heap, Pred1: rel.True(), Attr1: attr,
			R2: bprime, Pred2: rel.True(), Attr2: attr,
		}
	case "joinAselB":
		// No selection propagation: A is read and redistributed whole.
		return teradata.JoinQuery{
			R1: ts.heap, Pred1: rel.True(), Attr1: attr,
			R2: b, Pred2: tenPct, Attr2: attr,
		}
	default: // joinCselAselB
		return teradata.JoinQuery{
			R1: ts.heap, Pred1: tenPct, Attr1: attr,
			R2: b, Pred2: tenPct, Attr2: attr,
			R3: c, Pred3: rel.True(), Attr3: rel.Unique1, AttrI: attr,
		}
	}
}
