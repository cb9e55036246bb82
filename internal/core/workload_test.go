package core

import (
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// TestRunWorkloadDeterministic: the harness's RunWorkload mix — MPL 8, two
// 1% heap selections per terminal returned to the host — completes all 16
// queries with their exact tuples, and two runs agree.
func TestRunWorkloadDeterministic(t *testing.T) {
	const n, terminals, perTerminal = 6000, 8, 2
	run := func() (WorkloadResult, sim.Time) {
		prm := config.Default()
		m := NewMachine(sim.New(), &prm, 2, 0)
		heap := m.Load(LoadSpec{Name: "aheap", Strategy: Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(n, 1))
		m.EnableSharedScans()
		wr := m.RunWorkload(WorkloadSpec{
			Terminals: terminals, PerTerminal: perTerminal, Ramp: sim.Second, Seed: 42,
			Make: func(term, q int, rng func() uint64) ConcurrentQuery {
				lo := int32(rng() % uint64(n-n/100))
				return ConcurrentQuery{Select: &SelectQuery{
					Scan:   ScanSpec{Rel: heap, Pred: rel.Between(rel.Unique2, lo, lo+n/100-1), Path: PathHeap},
					ToHost: true, Project: []rel.Attr{rel.Unique1}}}
			},
		})
		return wr, m.Sim.Now()
	}
	a, endA := run()
	b, endB := run()
	if want := (WorkloadResult{Queries: terminals * perTerminal, Tuples: terminals * perTerminal * n / 100}); a != want {
		t.Errorf("workload = %+v, want %+v", a, want)
	}
	if a != b || endA != endB {
		t.Errorf("reruns differ: %+v ending at %v, then %+v ending at %v", a, endA, b, endB)
	}
}
