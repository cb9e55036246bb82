package core

import (
	"testing"
	"testing/quick"

	"gamma/internal/config"
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// newMachineWithRel is newTestMachine without the *testing.T (usable inside
// testing/quick properties).
func newMachineWithRel(nDisk, nDiskless, n int) (*Machine, *Relation) {
	s := sim.New()
	prm := config.Default()
	m := NewMachine(s, &prm, nDisk, nDiskless)
	u1 := rel.Unique1
	r := m.Load(LoadSpec{
		Name: "A", Strategy: Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(n, 1))
	return m, r
}

func genTuples(n int, seed uint64) []rel.Tuple { return wisconsin.Generate(n, seed) }

func TestHashRouteIsStableAndInRange(t *testing.T) {
	f := func(v int32, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		r := HashRoute(rel.Unique2, LoadSeed, n)
		var tp rel.Tuple
		tp.Set(rel.Unique2, v)
		d1, d2 := r(&tp), r(&tp)
		return d1 == d2 && d1 >= 0 && d1 < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashRouteMatchesLoadPartitioning(t *testing.T) {
	// The split table must send a tuple to the same index the loader
	// chose — the short-circuit invariant of Local joins (§6.2.1).
	const n = 8
	r := HashRoute(rel.Unique1, LoadSeed, n)
	for v := int32(0); v < 1000; v++ {
		var tp rel.Tuple
		tp.Set(rel.Unique1, v)
		if got, want := r(&tp), int(rel.Hash64(v, LoadSeed)%n); got != want {
			t.Fatalf("route(%d) = %d, loader chose %d", v, got, want)
		}
	}
}

func TestRRRouteCycles(t *testing.T) {
	r := RRRoute(4)
	for i := 0; i < 20; i++ {
		if got := r(&rel.Tuple{}); got != i%4 {
			t.Fatalf("round-robin step %d = %d", i, got)
		}
	}
}

func TestBitFilterNoFalseNegatives(t *testing.T) {
	f := func(vals []int32, probe int32) bool {
		bf := NewBitFilter(1<<12, 99)
		present := false
		for _, v := range vals {
			bf.Add(v)
			if v == probe {
				present = true
			}
		}
		// No false negatives, ever.
		return !present || bf.MayContain(probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitFilterRejectsMostAbsentKeys(t *testing.T) {
	bf := NewBitFilter(1<<16, 7)
	for v := int32(0); v < 1000; v++ {
		bf.Add(v)
	}
	falsePos := 0
	for v := int32(100000); v < 110000; v++ {
		if bf.MayContain(v) {
			falsePos++
		}
	}
	if falsePos > 500 { // 1000 set bits in 65536 -> ~1.5% fp rate
		t.Errorf("false positives = %d/10000", falsePos)
	}
}

func TestOvfBitSlicesPartitionKeySpace(t *testing.T) {
	// Within one generation the seven slices plus the survivors must
	// partition values: each value claimed by at most one slice per
	// generation.
	for round := 0; round < 3; round++ {
		counts := map[int]int{}
		for v := int32(0); v < 8000; v++ {
			claimed := 0
			for slice := 1; slice <= 7; slice++ {
				if ovfBit(v, round, slice) {
					claimed++
				}
			}
			counts[claimed]++
		}
		if counts[2] > 0 {
			t.Fatalf("round %d: %d values claimed by two slices of one generation", round, counts[2])
		}
		// ~7/8 claimed, ~1/8 survivors.
		if counts[0] < 500 || counts[0] > 1800 {
			t.Errorf("round %d: %d survivors of 8000, want ~1000", round, counts[0])
		}
	}
}

func TestJoinPropertyRandomizedMemory(t *testing.T) {
	// Property: for random relation sizes and memory budgets, the
	// distributed join (with whatever overflow behaviour results) returns
	// exactly the nested-loop reference cardinality.
	f := func(sizeRaw, memRaw uint16, modeRaw uint8) bool {
		n := int(sizeRaw%1500) + 200
		mem := int(memRaw)*16 + 4096
		mode := []JoinMode{Local, Remote, AllNodes}[modeRaw%3]
		m, a := newMachineWithRel(3, 3, n)
		btup := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1},
			genTuples(n/2, 9))
		want := expectedJoin(a.AllTuples(), btup.AllTuples(), rel.Unique2, rel.Unique2)
		res := m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: btup, Pred: rel.True()}, BuildAttr: rel.Unique2,
			Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
			Mode:            mode,
			MemPerJoinBytes: mem,
		})
		return res.Tuples == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestHybridJoinCorrectUnderPressure(t *testing.T) {
	for _, mem := range []int{4096, 20 * 1024, 100 * 1024, 8 << 20} {
		m, a := newTestMachine(t, 3, 3, 2000)
		b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1},
			genTuples(1000, 9))
		want := expectedJoin(a.AllTuples(), b.AllTuples(), rel.Unique2, rel.Unique2)
		res := m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: rel.Unique2,
			Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
			Mode:            Remote,
			Algorithm:       HybridHash,
			MemPerJoinBytes: mem,
		})
		if res.Tuples != want {
			t.Errorf("mem=%d: hybrid join = %d tuples, want %d", mem, res.Tuples, want)
		}
	}
}

func TestHybridBeatsSimpleUnderHeavyPressure(t *testing.T) {
	run := func(algo JoinAlgorithm) Result {
		m, a := newTestMachine(t, 4, 4, 4000)
		b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1},
			genTuples(2000, 9))
		return m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: rel.Unique2,
			Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
			Mode:            Remote,
			Algorithm:       algo,
			MemPerJoinBytes: 2000 * 208 / 4 / 5, // ~1/5 of the build relation
		})
	}
	simple := run(SimpleHash)
	hybrid := run(HybridHash)
	if simple.Tuples != hybrid.Tuples {
		t.Fatalf("cardinality differs: %d vs %d", simple.Tuples, hybrid.Tuples)
	}
	if hybrid.Elapsed >= simple.Elapsed {
		t.Errorf("hybrid (%v) should beat simple (%v) at 1/5 memory (§8)", hybrid.Elapsed, simple.Elapsed)
	}
}

func TestEmptyRelationQueries(t *testing.T) {
	m, _ := newTestMachine(t, 4, 4, 100)
	empty := m.Load(LoadSpec{Name: "empty", Strategy: Hashed, PartAttr: rel.Unique1}, nil)
	sel := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: empty, Pred: rel.True(), Path: PathHeap}})
	if sel.Tuples != 0 {
		t.Errorf("select on empty relation returned %d", sel.Tuples)
	}
	full, _ := m.Relation("A")
	join := m.RunJoin(JoinQuery{
		Build: ScanSpec{Rel: empty, Pred: rel.True(), Path: PathHeap}, BuildAttr: rel.Unique2,
		Probe: ScanSpec{Rel: full, Pred: rel.True(), Path: PathHeap}, ProbeAttr: rel.Unique2,
		Mode: Remote,
	})
	if join.Tuples != 0 {
		t.Errorf("join with empty build returned %d", join.Tuples)
	}
	agg := m.RunAgg(AggQuery{Scan: ScanSpec{Rel: empty, Pred: rel.True(), Path: PathHeap}, Fn: Count, Attr: rel.Unique1, Mode: Remote})
	if agg.Groups[0] != 0 {
		t.Errorf("count on empty relation = %d", agg.Groups[0])
	}
}

func TestHundredPercentSelection(t *testing.T) {
	m, r := newTestMachine(t, 4, 0, 500)
	res := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.True(), Path: PathHeap}})
	if res.Tuples != 500 {
		t.Errorf("100%% selection = %d tuples", res.Tuples)
	}
	out, _ := m.Relation(res.ResultName)
	// Round-robin result distribution balances fragments (§5.2.1).
	for i, fr := range out.Frags {
		if n := fr.File.Len(); n < 100 || n > 150 {
			t.Errorf("result fragment %d = %d tuples, want ~125", i, n)
		}
	}
}

// TestSplitTableSteadyStateAllocs: a data packet travels as a pooled *packet,
// so once the pool and the connection are warm a split table's flush to a
// remote port, and the streamIn that consumes and recycles the packet,
// allocate nothing — the companion of nose's TestRemoteSendSteadyStateAllocs,
// whose payload the caller boxes.
func TestSplitTableSteadyStateAllocs(t *testing.T) {
	s := sim.New()
	prm := config.Default()
	net := nose.NewNetwork(s, prm.Net, prm.CPU)
	a, b := net.AddNode(false, prm.Disk), net.AddNode(false, prm.Disk)
	port := b.NewPort("in")
	rx := streamIn{port: port, want: streamBuild, expect: 1, node: b, instr: prm.Engine.InstrPerTupleStore}
	s.Spawn("recv", rx.run)
	var allocs float64
	s.Spawn("send", func(p *sim.Proc) {
		st := newSplitTable(a, &prm, streamBuild, []*nose.Port{port}, func(*rel.Tuple) int { return 0 })
		var tp rel.Tuple
		packet := func() {
			for range st.pp {
				st.send(p, &tp)
			}
		}
		for range 64 { // fill the pool, the window, the port queue and the calendar
			packet()
		}
		allocs = testing.AllocsPerRun(500, packet)
		st.close(p)
	})
	s.Run()
	if allocs != 0 {
		t.Errorf("steady-state split-table flush and receive allocate %v objects per packet, want 0", allocs)
	}
	if want := (64 + 501) * (prm.Net.PacketBytes / prm.TupleBytes); rx.tuples != want {
		t.Errorf("received %d tuples, want %d", rx.tuples, want)
	}
}
