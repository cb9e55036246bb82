package core

import (
	"testing"

	"gamma/internal/rel"
)

// TestZeroPercentIndexedRisesWithProcessors is Figure 4's signature
// behaviour as a unit test: operator-initiation cost at the scheduler grows
// linearly with nodes and dominates an empty index probe.
func TestZeroPercentIndexedRisesWithProcessors(t *testing.T) {
	run := func(d int) float64 {
		m, r := newMachineWithRel(d, d, 5000)
		res := m.RunSelect(SelectQuery{
			Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, -2, -1), Path: PathNonClustered},
		})
		return res.Elapsed.Seconds()
	}
	one, eight := run(1), run(8)
	if eight <= one {
		t.Errorf("0%% indexed selection: %v at 1 proc, %v at 8; should rise (§5.2.1)", one, eight)
	}
	if eight > one*5 {
		t.Errorf("rise too steep: %v -> %v", one, eight)
	}
}

// TestSchedulerSerializesInitiation: initiating operators on n nodes costs
// ~n * 4 * 7ms of scheduler time, visible in the 0% query floor.
func TestSchedulerSerializesInitiation(t *testing.T) {
	m, _ := newMachineWithRel(8, 8, 100)
	var elapsed float64
	{
		r, _ := m.Relation("A")
		res := m.RunSelect(SelectQuery{
			Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, -2, -1), Path: PathHeap},
		})
		elapsed = res.Elapsed.Seconds()
	}
	// 8 stores + 8 selects, 4 messages each at 7ms = 448ms minimum.
	if elapsed < 0.448 {
		t.Errorf("query completed in %.3fs; scheduler initiation alone costs >= 0.448s", elapsed)
	}
}

// TestStoringResultsCostsMoreThanReturningThem: the §4 observation that
// result storage (redistribution + writes) dominates high-selectivity
// queries.
func TestStoringResultsCostsMoreThanReturningThem(t *testing.T) {
	m, r := newMachineWithRel(4, 0, 4000)
	pred := rel.Between(rel.Unique2, 0, 399)
	stored := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: pred, Path: PathHeap}})
	toHost := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: pred, Path: PathHeap}, ToHost: true})
	if stored.Elapsed <= toHost.Elapsed {
		t.Errorf("stored (%v) should cost more than returned (%v)", stored.Elapsed, toHost.Elapsed)
	}
}

// TestRangePartitionedSelectUsesOnlyOverlappingSites: range declustering
// confines range queries on the partitioning attribute (§2).
func TestRangePartitionedSelectUsesOnlyOverlappingSites(t *testing.T) {
	m, _ := newMachineWithRel(4, 0, 100)
	r := m.Load(LoadSpec{Name: "ranged", Strategy: RangeUniform, PartAttr: rel.Unique1},
		genTuples(4000, 3))
	frags, _, _ := m.scanSites(ScanSpec{Rel: r, Pred: rel.Between(rel.Unique1, 0, 500)}) // every site is up
	if len(frags) >= 4 {
		t.Errorf("range query hit %d sites; range partitioning should confine it", len(frags))
	}
	// And the confined plan still returns exact results.
	res := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique1, 0, 500), Path: PathHeap}})
	if res.Tuples != 501 {
		t.Errorf("tuples = %d, want 501", res.Tuples)
	}
}

// TestRangeUserExactMatchSingleSite: exact match on a user-range-partitioned
// key goes to exactly one site.
func TestRangeUserExactMatchSingleSite(t *testing.T) {
	m, _ := newMachineWithRel(4, 0, 100)
	r := m.Load(LoadSpec{
		Name: "usr", Strategy: RangeUser, PartAttr: rel.Unique1,
		Bounds: []int32{999, 1999, 2999},
	}, genTuples(4000, 3))
	frags, _, _ := m.scanSites(ScanSpec{Rel: r, Pred: rel.Eq(rel.Unique1, 2500)}) // every site is up
	if len(frags) != 1 {
		t.Fatalf("exact match hit %d sites", len(frags))
	}
	if frags[0] != r.Frags[2] {
		t.Error("exact match routed to the wrong range fragment")
	}
}

// TestUpdateThenScanConsistency: a mixed workload — updates followed by
// every access path — stays consistent.
func TestUpdateThenScanConsistency(t *testing.T) {
	m, r := newMachineWithRel(4, 0, 2000)
	// Delete 5, append 3, modify 2.
	for _, k := range []int32{10, 20, 30, 40, 50} {
		if res := m.RunUpdate(UpdateQuery{Rel: r, Kind: DeleteByKey, Key: k}); res.Tuples != 1 {
			t.Fatalf("delete %d failed", k)
		}
	}
	for _, k := range []int32{5000, 5001, 5002} {
		var tp rel.Tuple
		tp.Set(rel.Unique1, k)
		tp.Set(rel.Unique2, k)
		if res := m.RunUpdate(UpdateQuery{Rel: r, Kind: AppendTuple, Tuple: tp}); res.Tuples != 1 {
			t.Fatalf("append %d failed", k)
		}
	}
	m.RunUpdate(UpdateQuery{Rel: r, Kind: ModifyIndexed, Key: 100, Attr: rel.Unique2, NewValue: 7100})
	m.RunUpdate(UpdateQuery{Rel: r, Kind: ModifyKeyAttr, Key: 200, Attr: rel.Unique1, NewValue: 6200})

	if r.Count() != 2000-5+3 {
		t.Fatalf("count = %d", r.Count())
	}
	heap := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.True(), Path: PathHeap}, ToHost: true})
	if heap.Tuples != 1998 {
		t.Errorf("heap scan sees %d tuples", heap.Tuples)
	}
	clus := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique1, 0, 9999), Path: PathClustered}, ToHost: true})
	if clus.Tuples != 1998 {
		t.Errorf("clustered scan sees %d tuples", clus.Tuples)
	}
	// The deleted keys are invisible on every path; survivors are found.
	for _, k := range []int32{10, 50} {
		if res := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Eq(rel.Unique1, k), Path: PathClustered}, ToHost: true}); res.Tuples != 0 {
			t.Errorf("deleted key %d still visible", k)
		}
	}
	if res := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Eq(rel.Unique2, 7100), Path: PathNonClustered}, ToHost: true}); res.Tuples != 1 {
		t.Errorf("modified unique2 not found via dense index (%d)", res.Tuples)
	}
}

// TestOverflowSpoolsAreFreed: spool files must not leak across rounds.
func TestOverflowSpoolsAreFreed(t *testing.T) {
	m, a := newMachineWithRel(2, 2, 3000)
	b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1}, genTuples(1500, 9))
	res := m.RunJoin(JoinQuery{
		Build: ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: rel.Unique2,
		Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
		Mode:            Remote,
		MemPerJoinBytes: 30 * 1024,
	})
	if res.Overflows == 0 {
		t.Fatal("no overflow; test vacuous")
	}
	// No spool (.ovf) relations should survive in any catalog or store.
	for _, name := range m.Relations() {
		if len(name) > 4 && name[:4] == "join" {
			t.Errorf("leaked spool artifact %q", name)
		}
	}
}

// TestJoinModesAgreeUnderOverflow: overflow handling must be mode-agnostic
// in its results.
func TestJoinModesAgreeUnderOverflow(t *testing.T) {
	counts := map[JoinMode]int{}
	for _, mode := range []JoinMode{Local, Remote, AllNodes} {
		m, a := newMachineWithRel(2, 2, 2000)
		b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1}, genTuples(1000, 9))
		res := m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: rel.Unique1,
			Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique1,
			Mode:            mode,
			MemPerJoinBytes: 20 * 1024,
		})
		if res.Overflows == 0 {
			t.Fatalf("mode %v: no overflow", mode)
		}
		counts[mode] = res.Tuples
	}
	if counts[Local] != counts[Remote] || counts[Remote] != counts[AllNodes] {
		t.Errorf("modes disagree under overflow: %v", counts)
	}
	if counts[Remote] != 1000 {
		t.Errorf("join = %d tuples, want 1000", counts[Remote])
	}
}
