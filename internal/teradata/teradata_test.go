package teradata

import (
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
	"gamma/internal/wiss"
)

func newTera(t *testing.T, n int) (*Machine, *Relation) {
	t.Helper()
	s := sim.New()
	prm := config.Default()
	m := NewMachine(s, &prm)
	r := m.Load("A", rel.Unique1, []rel.Attr{rel.Unique2}, wisconsin.Generate(n, 1))
	return m, r
}

func TestLoadHashPartitions(t *testing.T) {
	m, r := newTera(t, 2000)
	if len(r.Frags) != 20 {
		t.Fatalf("fragments = %d, want 20 AMPs", len(r.Frags))
	}
	total := 0
	for _, fr := range r.Frags {
		total += fr.File.Len()
	}
	if total != 2000 {
		t.Errorf("total = %d", total)
	}
	_ = m
}

func TestFileScanSelection(t *testing.T) {
	m, r := newTera(t, 2000)
	res := m.RunSelect(r, rel.Between(rel.Unique2, 0, 19), FileScan, false)
	if res.Tuples != 20 {
		t.Errorf("tuples = %d, want 20", res.Tuples)
	}
	if res.Elapsed <= 0 {
		t.Error("zero elapsed")
	}
	out, _ := m.Relation("result")
	if out.N != 20 {
		t.Errorf("stored %d", out.N)
	}
}

func TestIndexScanNoFasterThanFileScan(t *testing.T) {
	// §5.1: hashed dense index rows force a full index scan plus random
	// fetches, so a 1% indexed selection costs about as much as a scan.
	m, r := newTera(t, 5000)
	idx := m.RunSelect(r, rel.Between(rel.Unique2, 0, 49), IndexScan, false)
	m2, r2 := newTera(t, 5000)
	scan := m2.RunSelect(r2, rel.Between(rel.Unique2, 0, 49), FileScan, false)
	_ = m
	ratio := idx.Elapsed.Seconds() / scan.Elapsed.Seconds()
	if ratio < 0.5 || ratio > 1.6 {
		t.Errorf("index/scan ratio = %.2f; Table 1 shows they are nearly equal", ratio)
	}
	if idx.Tuples != scan.Tuples {
		t.Errorf("tuples differ: %d vs %d", idx.Tuples, scan.Tuples)
	}
}

func TestHashAccessSingleTuple(t *testing.T) {
	m, r := newTera(t, 2000)
	res := m.RunSelect(r, rel.Eq(rel.Unique1, 777), HashAccess, true)
	if res.Tuples != 1 {
		t.Errorf("tuples = %d", res.Tuples)
	}
	if res.Elapsed.Seconds() > 2.0 {
		t.Errorf("single-tuple select took %.2fs; Table 1 shows ~1.08s", res.Elapsed.Seconds())
	}
}

func TestJoinCorrectness(t *testing.T) {
	m, a := newTera(t, 2000)
	bp := wisconsin.Generate(200, 7)
	b := m.Load("Bprime", rel.Unique1, nil, bp)
	// Non-key join on unique2: every Bprime tuple matches exactly one A.
	res := m.RunJoin(JoinQuery{
		R1: a, Pred1: rel.True(), Attr1: rel.Unique2,
		R2: b, Pred2: rel.True(), Attr2: rel.Unique2,
	})
	if res.Tuples != 200 {
		t.Errorf("join returned %d tuples, want 200", res.Tuples)
	}
}

func TestKeyJoinSkipsRedistribution(t *testing.T) {
	m, a := newTera(t, 4000)
	b := m.Load("Bprime", rel.Unique1, nil, wisconsin.Generate(400, 7))
	key := m.RunJoin(JoinQuery{
		R1: a, Pred1: rel.True(), Attr1: rel.Unique1,
		R2: b, Pred2: rel.True(), Attr2: rel.Unique1,
	})
	m2, a2 := newTera(t, 4000)
	b2 := m2.Load("Bprime", rel.Unique1, nil, wisconsin.Generate(400, 7))
	nonkey := m2.RunJoin(JoinQuery{
		R1: a2, Pred1: rel.True(), Attr1: rel.Unique2,
		R2: b2, Pred2: rel.True(), Attr2: rel.Unique2,
	})
	if key.Tuples != nonkey.Tuples {
		t.Errorf("cardinality differs: %d vs %d", key.Tuples, nonkey.Tuples)
	}
	if key.Elapsed >= nonkey.Elapsed {
		t.Errorf("key join (%v) should beat non-key join (%v) — §6.1's 25-50%%", key.Elapsed, nonkey.Elapsed)
	}
}

func TestTwoStageJoin(t *testing.T) {
	m, a := newTera(t, 2000)
	b := m.Load("B", rel.Unique1, nil, wisconsin.Generate(2000, 21))
	c := m.Load("C", rel.Unique1, nil, wisconsin.Generate(200, 22))
	sel := rel.Between(rel.Unique2, 0, 199)
	res := m.RunJoin(JoinQuery{
		R1: a, Pred1: sel, Attr1: rel.Unique2,
		R2: b, Pred2: sel, Attr2: rel.Unique2,
		R3: c, Pred3: rel.True(), Attr3: rel.Unique1, AttrI: rel.Unique2,
	})
	if res.Tuples != 200 {
		t.Errorf("two-stage join returned %d, want 200 (|C|)", res.Tuples)
	}
}

func TestInsertLoggingDominatesLargeResults(t *testing.T) {
	// The Table 1 phenomenon: the 10% selection costs far more than 10x
	// the I/O difference because every stored tuple pays ~3 logged I/Os.
	m, r := newTera(t, 5000)
	one := m.RunSelect(r, rel.Between(rel.Unique2, 0, 49), FileScan, false)
	ten := m.RunSelect(r, rel.Between(rel.Unique2, 0, 499), FileScan, false)
	perTuple := (ten.Elapsed - one.Elapsed).Seconds() / 450
	if perTuple < 0.005 {
		t.Errorf("insert path costs %.4fs/tuple; should dominate (§4)", perTuple)
	}
}

func TestUpdates(t *testing.T) {
	m, r := newTera(t, 2000)
	var tp rel.Tuple
	tp.Set(rel.Unique1, 9999)
	tp.Set(rel.Unique2, 9999)
	app := m.RunUpdate(UpdateQuery{Rel: r, Kind: AppendTuple, Tuple: tp})
	if app.Tuples != 1 || r.N != 2001 {
		t.Errorf("append: changed=%d N=%d", app.Tuples, r.N)
	}
	del := m.RunUpdate(UpdateQuery{Rel: r, Kind: DeleteByKey, Key: 9999})
	if del.Tuples != 1 || r.N != 2000 {
		t.Errorf("delete: changed=%d N=%d", del.Tuples, r.N)
	}
	modNon := m.RunUpdate(UpdateQuery{Rel: r, Kind: ModifyNonIndexed, Key: 5, Attr: rel.OddOnePercent, NewValue: 3})
	if modNon.Tuples != 1 {
		t.Errorf("modify-nonindexed: changed=%d", modNon.Tuples)
	}
	modIdx := m.RunUpdate(UpdateQuery{Rel: r, Kind: ModifyIndexed, Key: 10, Attr: rel.Unique2, NewValue: 8888})
	if modIdx.Tuples != 1 {
		t.Errorf("modify-indexed: changed=%d", modIdx.Tuples)
	}
	modKey := m.RunUpdate(UpdateQuery{Rel: r, Kind: ModifyKeyAttr, Key: 6, Attr: rel.Unique1, NewValue: 7500})
	if modKey.Tuples != 1 {
		t.Errorf("modify-key: changed=%d", modKey.Tuples)
	}
	// Table 3 ordering: modifying the key (relocation + index updates) is
	// the most expensive Teradata update.
	if modKey.Elapsed <= modNon.Elapsed {
		t.Errorf("modify-key (%v) should exceed modify-nonindexed (%v)", modKey.Elapsed, modNon.Elapsed)
	}
}

// TestElapsedCoversWriteBehind pins the response time of a query that hands
// work to a device without waiting for it (Resource.UseAsync): the temp-file
// inserts of a redistributing join, which the sort phase then queues behind on
// the same drives. Such work is not a calendar event; its tail stays inside
// Elapsed only because Run ends at the latest completion.
func TestElapsedCoversWriteBehind(t *testing.T) {
	m, a := newTera(t, 10000)
	b := m.Load("Bprime", rel.Unique1, nil, wisconsin.Generate(1000, 7))
	join := m.RunJoin(JoinQuery{
		R1: a, Pred1: rel.True(), Attr1: rel.Unique2,
		R2: b, Pred2: rel.True(), Attr2: rel.Unique2,
	})
	if join.Tuples != 1000 || join.Elapsed != 33799358 {
		t.Errorf("redistributing join: %d tuples in %d us, want 1000 in 33799358", join.Tuples, join.Elapsed)
	}
}

// TestStoresStayFlatAcrossJoins: a join's temporary files — the redistributed
// partitions, their sorted copies — and the result relation it supersedes are
// dropped, so repeating a query does not grow any AMP's store.
func TestStoresStayFlatAcrossJoins(t *testing.T) {
	m, a := newTera(t, 2000)
	b := m.Load("Bprime", rel.Unique1, nil, wisconsin.Generate(200, 7))
	files := func() int {
		n := 0
		for _, st := range m.stores {
			n += st.Files()
		}
		return n
	}
	join := func() {
		m.RunJoin(JoinQuery{
			R1: a, Pred1: rel.True(), Attr1: rel.Unique2,
			R2: b, Pred2: rel.True(), Attr2: rel.Unique2,
		})
	}
	join()
	after1 := files()
	if want := 3 * len(m.AMPs); after1 != want {
		t.Errorf("%d files after one join, want %d (A, Bprime and the result on each AMP)", after1, want)
	}
	join()
	m.RunSelect(a, rel.Between(rel.Unique2, 0, 99), FileScan, false)
	if got := files(); got != after1 {
		t.Errorf("%d files after three queries, %d after one: temporary or superseded files stay behind", got, after1)
	}
}

// resumesOf runs body as one process per AMP and returns how many times the
// kernel resumed a process for it, beyond the harness's own hand-offs (the
// host, its start-up charge, one spawn per AMP and the barrier).
func resumesOf(m *Machine, body func(ap *sim.Proc, amp int)) int {
	cost := func(body func(ap *sim.Proc, amp int)) int {
		before := m.Sim.Resumes()
		m.run(0, func(p *sim.Proc) int {
			return m.fanout(p, "probe", func(ap *sim.Proc, amp int) int { body(ap, amp); return 0 })
		})
		return int(m.Sim.Resumes() - before)
	}
	harness := cost(func(*sim.Proc, int) {})
	return cost(body) - harness
}

// TestItinerariesResumePerPageNotPerTuple counts the hand-offs of the
// per-tuple and per-page paths of a join. Scanning and redistributing a
// fragment is one itinerary, so it resumes the AMP's process once, not per
// page or tuple — whether the page's tuples stay or each crosses the Y-net —
// and storing an AMP's batch of result tuples resumes it once. Sorting hands
// the process back at most twice per file it writes — a run, from its CPU to
// its last page write, or a merge pass's output — not once per page.
func TestItinerariesResumePerPageNotPerTuple(t *testing.T) {
	m, a := newTera(t, 4000)
	pages := 0
	for _, fr := range a.Frags {
		pages += fr.File.Pages()
	}
	for _, redistribute := range []bool{false, true} {
		dest := m.routeBuffers(a, rel.True())
		got := resumesOf(m, func(ap *sim.Proc, amp int) {
			m.scanRouteSeed(ap, amp, a, rel.True(), rel.Unique2, dest, hashSeed, redistribute)
		})
		if got > len(m.AMPs) {
			t.Errorf("redistribute=%v: %d resumes for %d pages (%d tuples) on %d AMPs: more than one per AMP",
				redistribute, got, pages, a.N, len(m.AMPs))
		}
		routed := 0
		for _, d := range dest {
			routed += len(d.refs)
		}
		if routed != a.N {
			t.Errorf("redistribute=%v: %d of %d tuples routed", redistribute, routed, a.N)
		}
	}

	out := m.newResult()
	batches := make([][]*rel.Tuple, len(a.Frags))
	for amp, fr := range a.Frags {
		ts := fileTuplesFree(fr)
		for i := range ts {
			batches[amp] = append(batches[amp], &ts[i])
		}
	}
	if got := resumesOf(m, func(ap *sim.Proc, amp int) { m.storeBatch(ap, amp, batches[amp], out) }); got > len(m.AMPs) {
		t.Errorf("%d resumes to store %d tuples from %d AMPs: more than one per AMP", got, a.N, len(m.AMPs))
	}
	stored := 0
	for _, fr := range out.Frags {
		stored += fr.File.Len()
	}
	if stored != a.N {
		t.Errorf("%d of %d tuples stored", stored, a.N)
	}

	// An AMP's sort resumes a constant number of times per file it writes,
	// not once per page of it.
	const memPages = 8
	sortMem := memPages * m.ampPrm.PageBytes
	// Every AMP sorts all of A's keys: runs of memPages pages, merged memPages-1
	// at a time.
	var all partition
	for _, fr := range a.Frags {
		ts := fileTuplesFree(fr)
		for i := range ts {
			all.add(&ts[i], ts[i].Get(rel.Unique2))
		}
	}
	perRun := sortMem / m.ampPrm.SlotBytes
	files := 0
	for runs := (a.N + perRun - 1) / perRun; ; runs = (runs + memPages - 2) / (memPages - 1) {
		files += runs
		if runs == 1 {
			break
		}
	}
	if pages := perRun / m.ampPrm.TuplesPerPage(); pages < memPages || files < 15 {
		t.Fatalf("%d files of %d pages; the test needs many of each", files, pages)
	}
	costs := wiss.SortCosts{InstrPerTupleRun: m.Prm.Tera.InstrPerTupleSort, InstrPerTupleMerge: m.Prm.Tera.InstrPerTupleMerge}
	got := resumesOf(m, func(ap *sim.Proc, amp int) {
		st := m.stores[m.AMPs[amp].ID]
		f := st.CreateFile("join.s1")
		f.LoadHollow(a.N)
		keys := append([]rel.KeyIndex(nil), all.keys...)
		sorted, order := wiss.SortKeys(ap, f, keys, sortMem, costs)
		if sorted.Len() != a.N || len(order) != a.N {
			t.Errorf("AMP %d sorted %d keys into a file of %d, want %d", amp, len(order), sorted.Len(), a.N)
		}
	})
	if got > 2*files*len(m.AMPs) {
		t.Errorf("%d resumes for %d AMPs to sort %d keys through %d files each: more than two per file", got, len(m.AMPs), a.N, files)
	}
}

// fileTuplesFree returns a fragment's tuples without charging simulated time.
func fileTuplesFree(fr *Fragment) []rel.Tuple {
	var out []rel.Tuple
	for pg := 0; pg < fr.File.Pages(); pg++ {
		out = fr.File.Page(pg).LiveTuples(out)
	}
	return out
}
