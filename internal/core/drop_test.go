package core

import (
	"errors"
	"fmt"
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// poolPages sums the buffer-pool residency across every disk site.
func poolPages(m *Machine) int {
	total := 0
	for _, nd := range m.Disk {
		total += m.StoreOf(nd).Pool().Len()
	}
	return total
}

// TestDropReleasesPoolPages: dropping a relation evicts every page it holds
// in the buffer pools, including its chained-declustered backups.
func TestDropReleasesPoolPages(t *testing.T) {
	s := sim.New()
	prm := config.Default()
	m := NewMachine(s, &prm, 4, 0)
	m.EnableMirroring()
	r := m.Load(LoadSpec{Name: "A", Strategy: Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(2000, 1))
	if len(r.Backups) != len(r.Frags) {
		t.Fatalf("mirrored load built %d backups for %d fragments", len(r.Backups), len(r.Frags))
	}
	// Touch primaries and backups so pages are resident.
	m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.True(), Path: PathHeap}, ToHost: true})
	m.CrashDisk(1)
	m.EnableFailover(0)
	m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.True(), Path: PathHeap}, ToHost: true})
	if poolPages(m) == 0 {
		t.Fatal("no resident pages after scans; test is vacuous")
	}
	before := poolPages(m)
	m.Drop("A")
	if _, ok := m.Relation("A"); ok {
		t.Error("relation still catalogued after Drop")
	}
	if after := poolPages(m); after >= before {
		t.Errorf("pool pages %d -> %d: Drop released nothing", before, after)
	}
}

// TestAbortCleanup: a mid-query crash aborts the first attempt; the retry
// must leave the catalog holding exactly the loaded relation plus the final
// result, and the buffer pools must not leak the aborted partial result.
func TestAbortCleanup(t *testing.T) {
	s := sim.New()
	prm := config.Default()
	m := NewMachine(s, &prm, 4, 2)
	m.EnableMirroring()
	r := m.Load(LoadSpec{Name: "A", Strategy: Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(5000, 1))
	m.EnableFailover(0)

	// Fault-free timing reference for placing the crash mid-query.
	ref := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 499), Path: PathHeap}})
	m.Drop(ref.ResultName)
	m.ResetPools()

	m.Sim.At(m.Sim.Now()+sim.Time(ref.Elapsed/2), func() { m.CrashDisk(2) })
	res := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 499), Path: PathHeap}})

	if res.Tuples != ref.Tuples {
		t.Errorf("retried select returned %d tuples, want %d", res.Tuples, ref.Tuples)
	}
	want := map[string]bool{"A": true, res.ResultName: true}
	for _, name := range m.Relations() {
		if !want[name] {
			t.Errorf("stray catalog entry %q after abort/retry (all: %v)", name, m.Relations())
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("catalog missing %q after abort/retry", name)
	}

	// The retried result must be a complete, independent relation.
	got, _ := m.Relation(res.ResultName)
	if got.Count() != res.Tuples {
		t.Errorf("result fragments hold %d tuples, want %d", got.Count(), res.Tuples)
	}
}

// TestRecreateSameNameIndependent: dropping a named result and re-running
// the query under the same name yields a fresh relation, not a view of the
// dropped one's storage.
func TestRecreateSameNameIndependent(t *testing.T) {
	m, r := newTestMachine(t, 4, 0, 1000)
	q := SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 99), Path: PathHeap}, ResultName: "out"}
	res1 := m.RunSelect(q)
	first, _ := m.Relation("out")
	m.Drop("out")
	res2 := m.RunSelect(q)
	second, _ := m.Relation("out")
	if res1.Tuples != res2.Tuples {
		t.Errorf("re-created relation has %d tuples, want %d", res2.Tuples, res1.Tuples)
	}
	if second.Count() != res2.Tuples {
		t.Errorf("re-created fragments hold %d tuples, want %d", second.Count(), res2.Tuples)
	}
	for i, fr := range second.Frags {
		if i < len(first.Frags) && fr.File == first.Frags[i].File {
			t.Errorf("fragment %d shares its file with the dropped relation", i)
		}
	}
}

// TestTakenNameRejected: a query naming its result after a catalogued
// relation ends with ErrNameTaken and creates nothing — the catalog and every
// store's files are as before — while automatic result names skip taken ones
// and Load of a taken name panics.
func TestTakenNameRejected(t *testing.T) {
	m, a := newTestMachine(t, 4, 2, 1000)
	b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1}, genTuples(100, 7))
	m.Load(LoadSpec{Name: "result1", Strategy: Hashed, PartAttr: rel.Unique1}, genTuples(10, 9))
	state := func() string {
		s := fmt.Sprint(m.Relations())
		for _, name := range m.Relations() {
			r, _ := m.Relation(name)
			s += fmt.Sprintf(" %s:%d/%p", name, r.Count(), r)
		}
		for _, nd := range m.Disk {
			s += fmt.Sprintf(" files@%d=%d", nd.ID, m.StoreOf(nd).Files())
		}
		return s
	}
	want := state()
	scan := ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 4), Path: PathHeap}
	for _, tc := range []struct {
		label string
		res   Result
	}{
		{"select into B", m.RunSelect(SelectQuery{Scan: scan, ResultName: "B"})},
		{"select into A", m.RunSelect(SelectQuery{Scan: scan, ResultName: a.Name})},
		{"join into B", m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: b, Pred: rel.True(), Path: PathHeap}, BuildAttr: rel.Unique1,
			Probe: scan, ProbeAttr: rel.Unique1, Mode: Remote, ResultName: "B",
		})},
	} {
		if !errors.Is(tc.res.Err, ErrNameTaken) {
			t.Errorf("%s: err %v, want ErrNameTaken", tc.label, tc.res.Err)
		}
		if got := state(); got != want {
			t.Errorf("%s changed the machine:\n got %s\nwant %s", tc.label, got, want)
		}
	}
	if res := m.RunSelect(SelectQuery{Scan: scan}); res.Err != nil || res.ResultName != "result2" {
		t.Errorf("unnamed result: %q, err %v; want result2", res.ResultName, res.Err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Load of a taken name did not panic")
		}
	}()
	m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1}, genTuples(10, 3))
}
