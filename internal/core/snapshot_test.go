package core_test

// Machine-image acceptance tests: a machine restored from a snapshot onto a
// fresh simulation must be indistinguishable — byte-for-byte in results and
// traces — from a machine that loaded the same database from scratch, no
// matter what earlier restores did to their own copies (copy-on-write).

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// benchLoad loads the paper's benchmark database (heap-partitioned "Aheap"
// shape: hashed on unique1, clustered unique1 + dense unique2 indexes) plus a
// small join relation, mirroring what internal/bench builds per data point.
func benchLoad(m *core.Machine, n int) {
	m.Load(indexedSpec(core.Hashed), wisconsin.Generate(n, 1))
	m.Load(bprimeSpec, wisconsin.Generate(n/10, 7))
}

// benchLoadBprimeFirst loads the same relations in the other order, which is
// not Relations()' sorted one.
func benchLoadBprimeFirst(m *core.Machine, n int) {
	m.Load(bprimeSpec, wisconsin.Generate(n/10, 7))
	m.Load(indexedSpec(core.Hashed), wisconsin.Generate(n, 1))
}

// imageWorkload runs a representative query mix — index select, heap select
// with stored result, hash join, append + non-indexed modify updates — and
// returns every Result. It drives spool files, result stores, index updates
// and page writes, i.e. all the copy-on-write paths.
func imageWorkload(m *core.Machine) []core.Result {
	a, _ := m.Relation("A")
	b, _ := m.Relation("Bprime")
	var out []core.Result
	out = append(out, m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 99), Path: core.PathNonClustered},
	}))
	out = append(out, m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique1, 0, 199), Path: core.PathHeap},
	}))
	out = append(out, m.RunJoin(core.JoinQuery{
		Build: core.ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: rel.Unique2,
		Probe: core.ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
		Mode: core.Remote,
	}))
	out = append(out, m.RunUpdate(core.UpdateQuery{
		Rel: a, Kind: core.AppendTuple, Tuple: wisconsin.Generate(1, 99)[0],
	}))
	out = append(out, m.RunUpdate(core.UpdateQuery{
		Rel: a, Kind: core.ModifyNonIndexed, Key: 42, Attr: rel.Ten, NewValue: 7,
	}))
	return out
}

// benchMachine is a 4+4 machine holding what load puts on it.
func benchMachine(load func(*core.Machine, int), n int) *core.Machine {
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, 4, 4)
	load(m, n)
	return m
}

// freshResults runs the workload on a from-scratch machine and returns its
// results plus the trace JSONL.
func freshResults(t *testing.T, n int) ([]core.Result, []byte) {
	t.Helper()
	return tracedResults(t, benchMachine(benchLoad, n))
}

// snapBench builds the benchmark database once and snapshots it.
func snapBench(n int) *core.Snapshot {
	return benchMachine(benchLoad, n).Snapshot()
}

// restoredResults restores the snapshot onto a fresh sim and runs the
// workload, returning results plus trace JSONL.
func restoredResults(t *testing.T, snap *core.Snapshot) ([]core.Result, []byte) {
	t.Helper()
	return tracedResults(t, core.RestoreMachine(sim.New(), snap))
}

// tracedResults runs the workload on m with tracing on and returns its
// results plus the trace JSONL.
func tracedResults(t *testing.T, m *core.Machine) ([]core.Result, []byte) {
	t.Helper()
	col := m.EnableTrace()
	res := imageWorkload(m)
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return res, buf.Bytes()
}

// TestRestoreMatchesFreshLoad is the tentpole determinism contract: results
// and traces from a restored machine are byte-identical to a from-scratch
// load-then-query run, whichever order the relations were loaded in (file
// ids, and so the trace, follow the load order).
func TestRestoreMatchesFreshLoad(t *testing.T) {
	const n = 3000
	for _, tc := range []struct {
		name string
		load func(*core.Machine, int)
	}{
		{"A first", benchLoad},
		{"Bprime first", benchLoadBprimeFirst},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantTrace := tracedResults(t, benchMachine(tc.load, n))
			got, gotTrace := restoredResults(t, benchMachine(tc.load, n).Snapshot())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("restored results differ from fresh load:\n got %+v\nwant %+v", got, want)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("restored trace differs from fresh load (%d vs %d bytes)", len(gotTrace), len(wantTrace))
			}
		})
	}
}

// TestRestoreIsolation is the COW contract: running a write-heavy workload on
// one restored machine must not perturb a later restore of the same image.
func TestRestoreIsolation(t *testing.T) {
	const n = 3000
	snap := snapBench(n)
	first, firstTrace := restoredResults(t, snap)
	// Dirty a second restore: updates, stored results, spool files, drops.
	dirty := core.RestoreMachine(sim.New(), snap)
	imageWorkload(dirty)
	a, _ := dirty.Relation("A")
	for i := 0; i < 50; i++ {
		dirty.RunUpdate(core.UpdateQuery{Rel: a, Kind: core.AppendTuple, Tuple: wisconsin.Generate(1, uint64(100+i))[0]})
		dirty.RunUpdate(core.UpdateQuery{Rel: a, Kind: core.DeleteByKey, Key: int32(i)})
	}
	// A third restore must still replay the first run byte-for-byte.
	again, againTrace := restoredResults(t, snap)
	if !reflect.DeepEqual(again, first) {
		t.Errorf("restore after dirty run differs:\n got %+v\nwant %+v", again, first)
	}
	if !bytes.Equal(againTrace, firstTrace) {
		t.Error("restore after dirty run produced a different trace")
	}
}

// TestDropOnRestoredRelationSharesPages: dropping a restored relation (and
// querying into stored results, then dropping those) must never write to
// shared pages — drop is directory metadata only.
func TestDropOnRestoredRelationSharesPages(t *testing.T) {
	snap := snapBench(1000)
	m := core.RestoreMachine(sim.New(), snap)
	a, _ := m.Relation("A")
	res := m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique1, 0, 99), Path: core.PathClustered},
	})
	m.Drop(res.ResultName)
	m.Drop("Bprime")
	m.Drop("A")
	if cl := m.COWClones(); cl != 0 {
		t.Errorf("drop path cloned %d shared pages; want 0", cl)
	}
	// The image must still restore intact.
	m2 := core.RestoreMachine(sim.New(), snap)
	a2, ok := m2.Relation("A")
	if !ok || a2.Count() != 1000 {
		t.Fatalf("image damaged by Drop: A missing or count wrong")
	}
}

// TestRestoreResetsPools: pool LRU state and hit/miss counters on a restored
// machine must match a fresh load exactly (satellite: stale state between
// data points).
func TestRestoreResetsPools(t *testing.T) {
	const n = 2000
	run := func(m *core.Machine) (core.Result, int64, int64) {
		a, _ := m.Relation("A")
		r := m.RunSelect(core.SelectQuery{
			Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 199), Path: core.PathHeap},
		})
		h, ms := m.PoolStats()
		return r, h, ms
	}
	prm := config.Default()
	fresh := core.NewMachine(sim.New(), &prm, 4, 4)
	benchLoad(fresh, n)
	wantRes, wantH, wantM := run(fresh)

	snap := snapBench(n)
	rest := core.RestoreMachine(sim.New(), snap)
	if h, ms := rest.PoolStats(); h != 0 || ms != 0 {
		t.Errorf("restored machine starts with pool stats hits=%d misses=%d; want 0,0", h, ms)
	}
	gotRes, gotH, gotM := run(rest)
	if gotH != wantH || gotM != wantM {
		t.Errorf("pool stats after query: restored hits=%d misses=%d, fresh hits=%d misses=%d",
			gotH, gotM, wantH, wantM)
	}
	if gotRes.Counters.PoolHits != wantRes.Counters.PoolHits || gotRes.Counters.PoolMisses != wantRes.Counters.PoolMisses {
		t.Errorf("Result pool counters: restored %d/%d, fresh %d/%d",
			gotRes.Counters.PoolHits, gotRes.Counters.PoolMisses, wantRes.Counters.PoolHits, wantRes.Counters.PoolMisses)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("restored query result differs from fresh:\n got %+v\nwant %+v", gotRes, wantRes)
	}
	// A second restore must see the pools cold again, not the prior restore's.
	rest2 := core.RestoreMachine(sim.New(), snap)
	gotRes2, _, _ := run(rest2)
	if !reflect.DeepEqual(gotRes2, gotRes) {
		t.Error("second restore's query differs — pool state leaked between restores")
	}
}

// TestConcurrentRestores exercises many goroutines restoring and dirtying the
// same image at once (run under -race): frozen pages and shared index graphs
// must tolerate concurrent readers while every writer clones privately.
func TestConcurrentRestores(t *testing.T) {
	const n = 2000
	snap := snapBench(n)
	want, wantTrace := restoredResults(t, snap)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, gotTrace := restoredResults(t, snap)
			if !reflect.DeepEqual(got, want) {
				t.Error("concurrent restore produced different results")
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Error("concurrent restore produced a different trace")
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotSourceKeepsWorking: taking a snapshot must not break the source
// machine — it keeps answering queries (now via COW) with identical results.
func TestSnapshotSourceKeepsWorking(t *testing.T) {
	const n = 2000
	want, _ := freshResults(t, n)
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, 4, 4)
	benchLoad(m, n)
	snap := m.Snapshot()
	m.EnableTrace()
	got := imageWorkload(m)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("source machine after snapshot differs:\n got %+v\nwant %+v", got, want)
	}
	// And the image it produced is still pristine.
	again, _ := restoredResults(t, snap)
	if !reflect.DeepEqual(again, want) {
		t.Error("image dirtied by source machine's post-snapshot writes")
	}
}

// TestSnapshotKeepsResultRelations: a snapshot taken after a query stored its
// result on a mirrored machine (results have no backups) restores that
// result too, and the restored machine's next result takes a fresh name.
func TestSnapshotKeepsResultRelations(t *testing.T) {
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, 4, 0)
	m.EnableMirroring()
	a := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(2000, 1))
	sel := func(m *core.Machine, a *core.Relation) core.Result {
		return m.RunSelect(core.SelectQuery{
			Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique1, 0, 99), Path: core.PathHeap},
		})
	}
	first := sel(m, a)
	want, _ := m.Relation(first.ResultName)

	rest := core.RestoreMachine(sim.New(), m.Snapshot())
	got, ok := rest.Relation(first.ResultName)
	if !ok {
		t.Fatalf("restored machine lost result relation %q", first.ResultName)
	}
	sorted := func(r *core.Relation) []rel.Tuple {
		ts := r.AllTuples()
		slices.SortFunc(ts, func(x, y rel.Tuple) int { return int(x.Get(rel.Unique1) - y.Get(rel.Unique1)) })
		return ts
	}
	if g, w := sorted(got), sorted(want); !reflect.DeepEqual(g, w) {
		t.Errorf("restored result holds %d tuples, source %d (or different ones)", len(g), len(w))
	}
	restA, _ := rest.Relation("A")
	if next := sel(rest, restA); next.ResultName == first.ResultName {
		t.Errorf("restored machine reused result name %q", next.ResultName)
	}
}

// TestRestoredMirroredMachine covers the chained-declustering path: backups
// must restore with the image and failover must work on the restored copy.
func TestRestoredMirroredMachine(t *testing.T) {
	build := func() *core.Machine {
		prm := config.Default()
		m := core.NewMachine(sim.New(), &prm, 4, 0)
		m.EnableMirroring()
		m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1},
			wisconsin.Generate(2000, 1))
		return m
	}
	query := func(m *core.Machine) core.Result {
		m.EnableFailover(0)
		m.CrashDisk(1)
		a, _ := m.Relation("A")
		return m.RunSelect(core.SelectQuery{
			Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique1, 0, 499), Path: core.PathHeap},
		})
	}
	want := query(build())
	snap := build().Snapshot()
	got := query(core.RestoreMachine(sim.New(), snap))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mirrored restore with failover differs:\n got %+v\nwant %+v", got, want)
	}
}
