package core

import (
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// newTestMachine builds a machine and loads one n-tuple relation "A" hashed
// on unique1 with a clustered index on unique1 and a dense index on unique2,
// mirroring the paper's benchmark database.
func newTestMachine(t *testing.T, nDisk, nDiskless, n int) (*Machine, *Relation) {
	t.Helper()
	s := sim.New()
	prm := config.Default()
	m := NewMachine(s, &prm, nDisk, nDiskless)
	u1 := rel.Unique1
	r := m.Load(LoadSpec{
		Name:                "A",
		Strategy:            Hashed,
		PartAttr:            rel.Unique1,
		ClusteredIndex:      &u1,
		NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(n, 1))
	return m, r
}

func TestLoadPartitionsAllTuples(t *testing.T) {
	m, r := newTestMachine(t, 4, 4, 1000)
	if r.Count() != 1000 {
		t.Fatalf("count = %d", r.Count())
	}
	// Hashed declustering should be roughly balanced.
	for i, fr := range r.Frags {
		n := fr.File.Len()
		if n < 150 || n > 350 {
			t.Errorf("fragment %d has %d tuples; want ~250", i, n)
		}
	}
	_ = m
}

func TestSelectHeapCorrectness(t *testing.T) {
	m, r := newTestMachine(t, 4, 0, 2000)
	res := m.RunSelect(SelectQuery{
		Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 199), Path: PathHeap},
	})
	if res.Tuples != 200 {
		t.Errorf("heap select returned %d tuples, want 200", res.Tuples)
	}
	if res.Elapsed <= 0 {
		t.Error("zero elapsed time")
	}
	// Result relation must actually hold the tuples.
	out, ok := m.Relation(res.ResultName)
	if !ok {
		t.Fatal("result relation missing from catalog")
	}
	for _, tp := range out.AllTuples() {
		if u2 := tp.Get(rel.Unique2); u2 > 199 {
			t.Fatalf("result contains non-matching tuple unique2=%d", u2)
		}
	}
	if out.Count() != 200 {
		t.Errorf("stored %d tuples", out.Count())
	}
}

func TestSelectPathsAgree(t *testing.T) {
	m, r := newTestMachine(t, 4, 0, 5000)
	pred1 := rel.Between(rel.Unique1, 1000, 1049) // clustered attr
	pred2 := rel.Between(rel.Unique2, 1000, 1049) // non-clustered attr
	heap1 := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: pred1, Path: PathHeap}})
	clus := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: pred1, Path: PathClustered}})
	heap2 := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: pred2, Path: PathHeap}})
	nonc := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: pred2, Path: PathNonClustered}})
	if heap1.Tuples != 50 || clus.Tuples != 50 || heap2.Tuples != 50 || nonc.Tuples != 50 {
		t.Errorf("tuples: heap1=%d clustered=%d heap2=%d nonclustered=%d, want 50 each",
			heap1.Tuples, clus.Tuples, heap2.Tuples, nonc.Tuples)
	}
	if clus.Elapsed >= heap1.Elapsed {
		t.Errorf("clustered select (%v) not faster than heap (%v)", clus.Elapsed, heap1.Elapsed)
	}
	if nonc.Elapsed >= heap2.Elapsed {
		t.Errorf("1%% non-clustered select (%v) not faster than heap (%v)", nonc.Elapsed, heap2.Elapsed)
	}
}

func TestOptimizerPathChoices(t *testing.T) {
	m, r := newTestMachine(t, 4, 0, 10000)
	cases := []struct {
		pred rel.Pred
		want AccessPath
	}{
		{rel.True(), PathHeap},
		{rel.Between(rel.Unique1, 0, 99), PathClustered},
		{rel.Between(rel.Unique1, 0, 999), PathClustered},
		{rel.Between(rel.Unique2, 0, 99), PathNonClustered}, // 1%: index wins
		{rel.Between(rel.Unique2, 0, 999), PathHeap},        // 10%: segment scan (§5.2.1)
		{rel.Between(rel.Ten, 3, 3), PathHeap},              // no index on ten
	}
	for _, c := range cases {
		got := m.resolveScan(ScanSpec{Rel: r, Pred: c.pred, Path: PathAuto}).Path
		if got != c.want {
			t.Errorf("pred %v: path = %v, want %v", c.pred, got, c.want)
		}
	}
}

func TestExactMatchOnPartitioningAttrUsesOneSite(t *testing.T) {
	m, r := newTestMachine(t, 4, 0, 1000)
	frags, _, _ := m.scanSites(ScanSpec{Rel: r, Pred: rel.Eq(rel.Unique1, 123)}) // every site is up
	if len(frags) != 1 {
		t.Fatalf("exact-match used %d sites, want 1", len(frags))
	}
	// And it must be the right site.
	res := m.RunSelect(SelectQuery{
		Scan:   ScanSpec{Rel: r, Pred: rel.Eq(rel.Unique1, 123), Path: PathClustered},
		ToHost: true,
	})
	if res.Tuples != 1 {
		t.Errorf("single-tuple select returned %d tuples", res.Tuples)
	}
}

func TestZeroPercentSelection(t *testing.T) {
	m, r := newTestMachine(t, 4, 0, 2000)
	res := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Pred{Attr: rel.Unique1, Lo: 1, Hi: 0}, Path: PathHeap}})
	if res.Tuples != 0 {
		t.Errorf("0%% selection returned %d tuples", res.Tuples)
	}
	if res.Elapsed <= 0 {
		t.Error("zero elapsed")
	}
}

// expectedJoin computes the reference join cardinality by nested loops.
func expectedJoin(a, b []rel.Tuple, aAttr, bAttr rel.Attr) int {
	byVal := map[int32]int{}
	for _, t := range b {
		byVal[t.Get(bAttr)]++
	}
	n := 0
	for _, t := range a {
		n += byVal[t.Get(aAttr)]
	}
	return n
}

func TestJoinCorrectnessAllModes(t *testing.T) {
	for _, mode := range []JoinMode{Local, Remote, AllNodes} {
		m, a := newTestMachine(t, 4, 4, 2000)
		bt := wisconsin.Generate(200, 7)
		b := m.Load(LoadSpec{Name: "Bprime", Strategy: Hashed, PartAttr: rel.Unique1}, bt)
		want := expectedJoin(a.AllTuples(), bt, rel.Unique2, rel.Unique2)
		if want == 0 {
			t.Fatal("test setup: empty join")
		}
		res := m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: rel.Unique2,
			Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
			Mode: mode,
		})
		if res.Tuples != want {
			t.Errorf("mode %v: join returned %d tuples, want %d", mode, res.Tuples, want)
		}
		if res.Overflows != 0 {
			t.Errorf("mode %v: unexpected overflow (%d)", mode, res.Overflows)
		}
	}
}

func TestJoinOnKeyAttributeShortCircuitsLocally(t *testing.T) {
	mkRes := func(mode JoinMode, attr rel.Attr) Result {
		m, a := newTestMachine(t, 4, 4, 4000)
		b := m.Load(LoadSpec{Name: "Bprime", Strategy: Hashed, PartAttr: rel.Unique1},
			wisconsin.Generate(400, 7))
		return m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: attr,
			Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: attr,
			Mode: mode,
		})
	}
	keyLocal := mkRes(Local, rel.Unique1)
	keyRemote := mkRes(Remote, rel.Unique1)
	// Joining on the partitioning attribute locally: every input tuple
	// short-circuits, so Local beats Remote (§6.2.1, Figure 9).
	if keyLocal.Elapsed >= keyRemote.Elapsed {
		t.Errorf("local key join (%v) not faster than remote (%v)", keyLocal.Elapsed, keyRemote.Elapsed)
	}
	// Local/key short-circuits all join input; remaining packets are the
	// round-robin result-store traffic, which both modes share.
	if keyLocal.Counters.Net.DataPackets*5 > keyRemote.Counters.Net.DataPackets {
		t.Errorf("local key join sent %d packets vs remote %d; expected near-total short-circuit",
			keyLocal.Counters.Net.DataPackets, keyRemote.Counters.Net.DataPackets)
	}
	nonKeyLocal := mkRes(Local, rel.Unique2)
	nonKeyRemote := mkRes(Remote, rel.Unique2)
	// On a non-partitioning attribute the ordering flips (Figure 10).
	if nonKeyRemote.Elapsed >= nonKeyLocal.Elapsed {
		t.Errorf("remote non-key join (%v) not faster than local (%v)", nonKeyRemote.Elapsed, nonKeyLocal.Elapsed)
	}
}

func TestJoinOverflowMatchesInMemoryResult(t *testing.T) {
	run := func(mem int) Result {
		m, a := newTestMachine(t, 2, 2, 3000)
		b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1},
			wisconsin.Generate(1500, 9))
		return m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: rel.Unique2,
			Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
			Mode:            Remote,
			MemPerJoinBytes: mem,
		})
	}
	big := run(64 << 20)
	small := run(40 * 1024) // force hash-table overflow
	if small.Overflows == 0 {
		t.Fatal("small-memory join did not overflow; test is vacuous")
	}
	if big.Overflows != 0 {
		t.Fatal("large-memory join overflowed")
	}
	if small.Tuples != big.Tuples {
		t.Errorf("overflow join produced %d tuples, in-memory produced %d", small.Tuples, big.Tuples)
	}
	if small.Elapsed <= big.Elapsed {
		t.Errorf("overflow join (%v) should be slower than in-memory (%v)", small.Elapsed, big.Elapsed)
	}
}

func TestTwoStageJoin(t *testing.T) {
	// joinCselAselB shape: sel(A) join sel(B) on unique2, then join C on
	// C.unique1 = intermediate.unique2.
	m, a := newTestMachine(t, 4, 4, 2000)
	b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(2000, 21))
	c := m.Load(LoadSpec{Name: "C", Strategy: Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(200, 22))
	sel := rel.Between(rel.Unique2, 0, 199) // 10%
	cSpec := ScanSpec{Rel: c, Pred: rel.True()}
	res := m.RunJoin(JoinQuery{
		Build: ScanSpec{Rel: b, Pred: sel}, BuildAttr: rel.Unique2,
		Probe: ScanSpec{Rel: a, Pred: sel}, ProbeAttr: rel.Unique2,
		Build2: &cSpec, Build2Attr: rel.Unique1, Probe2Attr: rel.Unique2,
		Mode: Remote,
	})
	// Intermediate: 200 tuples with unique2 in [0,199]; stage-one output
	// carries the probe (A) tuple; each matches exactly one C tuple on
	// C.unique1 = A.unique2 since C has unique1 0..199.
	if res.Tuples != 200 {
		t.Errorf("two-stage join returned %d tuples, want 200", res.Tuples)
	}
}

func TestBitVectorFilterReducesTraffic(t *testing.T) {
	run := func(filter bool) Result {
		m, a := newTestMachine(t, 4, 4, 4000)
		b := m.Load(LoadSpec{Name: "Bprime", Strategy: Hashed, PartAttr: rel.Unique1},
			wisconsin.Generate(400, 7))
		return m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: rel.Unique2,
			Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
			Mode:         Remote,
			UseBitFilter: filter,
		})
	}
	plain := run(false)
	filtered := run(true)
	if filtered.Tuples != plain.Tuples {
		t.Errorf("filter changed result: %d vs %d", filtered.Tuples, plain.Tuples)
	}
	if filtered.Counters.Net.DataPackets >= plain.Counters.Net.DataPackets {
		t.Errorf("filter did not reduce packets: %d vs %d", filtered.Counters.Net.DataPackets, plain.Counters.Net.DataPackets)
	}
	if filtered.Elapsed >= plain.Elapsed {
		t.Errorf("filtered join (%v) not faster than plain (%v)", filtered.Elapsed, plain.Elapsed)
	}
}

func TestPartitioningStrategies(t *testing.T) {
	s := sim.New()
	prm := config.Default()
	m := NewMachine(s, &prm, 4, 0)
	ts := wisconsin.Generate(1000, 31)

	rr := m.Load(LoadSpec{Name: "rr", Strategy: RoundRobin, PartAttr: rel.Unique1}, ts)
	for i, fr := range rr.Frags {
		if fr.File.Len() != 250 {
			t.Errorf("round-robin frag %d = %d tuples, want 250", i, fr.File.Len())
		}
	}

	ru := m.Load(LoadSpec{Name: "ru", Strategy: RangeUniform, PartAttr: rel.Unique1}, ts)
	for i, fr := range ru.Frags {
		if n := fr.File.Len(); n < 200 || n > 300 {
			t.Errorf("range-uniform frag %d = %d tuples, want ~250", i, n)
		}
	}
	// Range partitioning must place each tuple within its bounds.
	prev := int64(-1) << 32
	for i, fr := range ru.Frags {
		for pg := 0; pg < fr.File.Pages(); pg++ {
			for _, tp := range fr.File.PageTuples(pg) {
				v := int64(tp.Get(rel.Unique1))
				if v <= prev || v > int64(ru.Bounds[i]) {
					t.Fatalf("range frag %d holds out-of-range key %d", i, v)
				}
			}
		}
		prev = int64(ru.Bounds[i])
	}

	usr := m.Load(LoadSpec{
		Name: "usr", Strategy: RangeUser, PartAttr: rel.Unique1,
		Bounds: []int32{99, 499, 899},
	}, ts)
	if got := usr.Frags[0].File.Len(); got != 100 {
		t.Errorf("user-range frag 0 = %d, want 100", got)
	}
	if got := usr.Frags[3].File.Len(); got != 100 {
		t.Errorf("user-range frag 3 = %d, want 100", got)
	}
}
