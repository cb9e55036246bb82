package core

import (
	"reflect"
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// newWorkloadMachine builds a machine with nRels heap-only relations, each
// big enough that a fragment dwarfs the 64-frame buffer pool — the regime
// where concurrent private scans thrash (phase-shifted streams over several
// files keep the drive in random positioning and evict each other's pages)
// and shared cursors win.
func newWorkloadMachine(t *testing.T, nDisk, nRels, tuples int, shared bool) *Machine {
	t.Helper()
	s := sim.New()
	prm := config.Default()
	m := NewMachine(s, &prm, nDisk, 0)
	for i := 0; i < nRels; i++ {
		name := string(rune('A'+i)) + "w"
		m.Load(LoadSpec{Name: name, Strategy: RoundRobin}, wisconsin.Generate(tuples, uint64(11+i)))
	}
	if shared {
		m.EnableSharedScans()
	}
	return m
}

// selectionMix draws 1%-selectivity heap selections uniformly over the
// machine's relations, returning projected tuples to the host — the
// selection-heavy multiuser mix of the throughput experiment.
func selectionMix(m *Machine, nRels, tuples int) func(term, q int, rng func() uint64) ConcurrentQuery {
	rels := make([]*Relation, nRels)
	for i := range rels {
		rels[i] = mustRel(m, string(rune('A'+i))+"w")
	}
	span := int32(tuples / 100)
	return func(term, q int, rng func() uint64) ConcurrentQuery {
		r := rels[rng()%uint64(nRels)]
		lo := int32(rng() % uint64(tuples-int(span)))
		return ConcurrentQuery{Select: &SelectQuery{
			Scan:    ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, lo, lo+span-1), Path: PathHeap},
			ToHost:  true,
			Project: []rel.Attr{rel.Unique1},
		}}
	}
}

func mustRel(m *Machine, name string) *Relation {
	r, ok := m.Relation(name)
	if !ok {
		panic("missing relation " + name)
	}
	return r
}

func workloadSpec(m *Machine, nRels, tuples, terminals int, ramp sim.Dur) WorkloadSpec {
	return WorkloadSpec{
		Terminals:   terminals,
		PerTerminal: 2,
		Ramp:        ramp,
		Seed:        42,
		Make:        selectionMix(m, nRels, tuples),
	}
}

// TestRunWorkloadDeterministic: identical machine + spec must reproduce the
// full metrics struct (every response time included) exactly.
func TestRunWorkloadDeterministic(t *testing.T) {
	run := func() WorkloadResult {
		m := newWorkloadMachine(t, 2, 2, 6000, true)
		return m.RunWorkload(workloadSpec(m, 2, 6000, 4, 5*sim.Second))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reruns differ:\n%+v\n%+v", a, b)
	}
	if a.Queries != 8 || len(a.Responses) != 8 {
		t.Errorf("queries=%d responses=%d, want 8/8", a.Queries, len(a.Responses))
	}
	if a.Throughput <= 0 || a.MeanResponse <= 0 || a.P95Response < a.MeanResponse/2 {
		t.Errorf("implausible metrics: %+v", a)
	}
}

// TestSharedScanThroughputGain is the PR's acceptance criterion: at
// multiprogramming level 8 on a selection-heavy mix, shared scans must at
// least double closed-loop throughput over private scans, and the result
// tuples must match exactly. The simulation is deterministic, so the
// measured gain is a constant of the code, not a flaky measurement.
func TestSharedScanThroughputGain(t *testing.T) {
	const nRels, tuples, terminals = 4, 40000, 8
	run := func(shared bool) WorkloadResult {
		m := newWorkloadMachine(t, 4, nRels, tuples, shared)
		return m.RunWorkload(workloadSpec(m, nRels, tuples, terminals, 20*sim.Second))
	}
	private := run(false)
	sharedr := run(true)
	if sharedr.Tuples != private.Tuples {
		t.Fatalf("shared mix returned %d tuples, private %d", sharedr.Tuples, private.Tuples)
	}
	gain := sharedr.Throughput / private.Throughput
	if gain < 2 {
		t.Errorf("shared/private throughput = %.2f (%.3f vs %.3f q/s), want >= 2",
			gain, sharedr.Throughput, private.Throughput)
	}
	if c := sharedr.Counters; c.SharedDelivered <= c.SharedScanned {
		t.Errorf("shared run saved %d pages", c.SharedDelivered-c.SharedScanned)
	}
	if c := private.Counters; c.SharedDelivered != c.SharedScanned {
		t.Errorf("private run reports %d saved pages", c.SharedDelivered-c.SharedScanned)
	}
}
