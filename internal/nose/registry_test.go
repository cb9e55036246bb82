package nose_test

import (
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// TestPortRegistryBounded: a thousand sequential queries leave no port open —
// each query's scheduler and host ports included — and every node's port
// registry no larger than a few queries' worth.
func TestPortRegistryBounded(t *testing.T) {
	const queries = 1000
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, 4, 4)
	a := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(queries, 1))
	for i := int32(0); i < queries; i++ {
		res := m.RunSelect(core.SelectQuery{
			Scan: core.ScanSpec{Rel: a, Pred: rel.Eq(rel.Unique1, i), Path: core.PathHeap},
		})
		if res.Err != nil || res.Tuples != 1 {
			t.Fatalf("query %d: %d tuples, err %v", i, res.Tuples, res.Err)
		}
		m.Drop(res.ResultName)
	}
	for _, nd := range m.Net.Nodes() {
		ports := nose.Ports(nd)
		if len(ports) > 4 {
			t.Errorf("node %d registers %d ports after %d queries", nd.ID, len(ports), queries)
		}
		for _, pt := range ports {
			if !pt.Closed() {
				t.Errorf("node %d: port %q still open after the queries ended", nd.ID, pt.Name())
			}
		}
	}
}
