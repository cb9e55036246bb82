package bench

import (
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/teradata"
)

var paperTable3 = map[string][3][2]float64{
	"append 1 tuple (no indices exist)":         {{0.87, 0.18}, {1.29, 0.18}, {1.47, 0.20}},
	"append 1 tuple (one index exists)":         {{0.94, 0.60}, {1.62, 0.63}, {1.73, 0.66}},
	"delete 1 tuple":                            {{0.71, 0.44}, {0.42, 0.56}, {0.71, 0.61}},
	"modify 1 tuple (key attribute)":            {{2.62, 1.01}, {2.99, 0.86}, {4.82, 1.13}},
	"modify 1 tuple (non-indexed attribute)":    {{0.49, 0.36}, {0.90, 0.36}, {1.12, 0.36}},
	"modify 1 tuple (non-clustered index used)": {{0.84, 0.50}, {1.16, 0.46}, {3.72, 0.52}},
}

func runTable3(o Options) *Table {
	t := &Table{Title: "Update Queries (execution times in seconds)", Unit: "seconds"}
	labels := []string{
		"append 1 tuple (no indices exist)",
		"append 1 tuple (one index exists)",
		"delete 1 tuple",
		"modify 1 tuple (key attribute)",
		"modify 1 tuple (non-indexed attribute)",
		"modify 1 tuple (non-clustered index used)",
	}
	paperRows(o, t, labels, paperTable3, func(n int) func() [][2]Cell {
		ts := newTera(o, n, 1)
		g := newGamma(o, 8, 8, n, 1)
		return func() [][2]Cell {
			var fresh rel.Tuple
			fresh.Set(rel.Unique1, int32(n+7))
			fresh.Set(rel.Unique2, int32(n+7))

			// The updates run in label order, each on Teradata and then on Gamma.
			run := func(tq teradata.UpdateQuery, gq core.UpdateQuery) [2]Cell {
				return [2]Cell{
					{Measured: ts.m.RunUpdate(tq).Elapsed.Seconds()},
					{Measured: g.m.RunUpdate(gq).Elapsed.Seconds()},
				}
			}
			return [][2]Cell{
				run(teradata.UpdateQuery{Rel: ts.heap, Kind: teradata.AppendTuple, Tuple: fresh},
					core.UpdateQuery{Rel: g.heap, Kind: core.AppendTuple, Tuple: fresh}),
				run(teradata.UpdateQuery{Rel: ts.idx, Kind: teradata.AppendTuple, Tuple: fresh},
					core.UpdateQuery{Rel: g.idx, Kind: core.AppendTuple, Tuple: fresh}),
				run(teradata.UpdateQuery{Rel: ts.idx, Kind: teradata.DeleteByKey, Key: int32(n + 7)},
					core.UpdateQuery{Rel: g.idx, Kind: core.DeleteByKey, Key: int32(n + 7)}),
				run(teradata.UpdateQuery{Rel: ts.idx, Kind: teradata.ModifyKeyAttr, Key: int32(n / 3), Attr: rel.Unique1, NewValue: int32(n + 13)},
					core.UpdateQuery{Rel: g.idx, Kind: core.ModifyKeyAttr, Key: int32(n / 3), Attr: rel.Unique1, NewValue: int32(n + 13)}),
				run(teradata.UpdateQuery{Rel: ts.idx, Kind: teradata.ModifyNonIndexed, Key: int32(n / 4), Attr: rel.OddOnePercent, NewValue: 1},
					core.UpdateQuery{Rel: g.idx, Kind: core.ModifyNonIndexed, Key: int32(n / 4), Attr: rel.OddOnePercent, NewValue: 1}),
				run(teradata.UpdateQuery{Rel: ts.idx, Kind: teradata.ModifyIndexed, Key: int32(n / 5), Attr: rel.Unique2, NewValue: int32(n + 21)},
					core.UpdateQuery{Rel: g.idx, Kind: core.ModifyIndexed, Key: int32(n / 5), Attr: rel.Unique2, NewValue: int32(n + 21)}),
			}
		}
	})
	t.Notes = append(t.Notes,
		"Teradata runs full concurrency control and recovery; Gamma uses deferred update files for indices (§7).")
	return t
}
