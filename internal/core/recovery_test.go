package core

import (
	"testing"

	"gamma/internal/rel"
)

func TestRecoveryShipsLogRecords(t *testing.T) {
	m, r := newMachineWithRel(4, 0, 2000)
	rec := m.EnableRecovery()
	if m.rec != rec {
		t.Fatal("recovery not enabled")
	}
	res := m.RunSelect(SelectQuery{
		Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 199), Path: PathHeap},
	})
	if res.Tuples != 200 {
		t.Fatalf("select = %d tuples", res.Tuples)
	}
	if rec.Records < 200 {
		t.Errorf("logged %d records, want >= 200 (one per stored tuple)", rec.Records)
	}
	if ds := rec.Server.Drive.Stats(); ds.SeqWrites+ds.RandWrites == 0 {
		t.Error("recovery server drive never written")
	}
}

func TestRecoveryCostsTime(t *testing.T) {
	run := func(enable bool) float64 {
		m, r := newMachineWithRel(4, 0, 4000)
		if enable {
			m.EnableRecovery()
		}
		return m.RunSelect(SelectQuery{
			Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 399), Path: PathHeap},
		}).Elapsed.Seconds()
	}
	off, on := run(false), run(true)
	if on <= off {
		t.Errorf("logging (%v) should cost more than no logging (%v)", on, off)
	}
	if on > off*1.5 {
		t.Errorf("logging overhead too large: %v vs %v", on, off)
	}
}

func TestRecoveryDoesNotChangeResults(t *testing.T) {
	m, r := newMachineWithRel(4, 0, 1000)
	m.EnableRecovery()
	var tp rel.Tuple
	tp.Set(rel.Unique1, 5000)
	tp.Set(rel.Unique2, 5000)
	if res := m.RunUpdate(UpdateQuery{Rel: r, Kind: AppendTuple, Tuple: tp}); res.Tuples != 1 {
		t.Fatal("append failed under recovery")
	}
	if res := m.RunUpdate(UpdateQuery{Rel: r, Kind: DeleteByKey, Key: 5000}); res.Tuples != 1 {
		t.Fatal("delete failed under recovery")
	}
	if res := m.RunUpdate(UpdateQuery{Rel: r, Kind: ModifyNonIndexed, Key: 7, Attr: rel.Ten, NewValue: 1}); res.Tuples != 1 {
		t.Fatal("modify failed under recovery")
	}
	if r.Count() != 1000 {
		t.Errorf("count = %d", r.Count())
	}
}

func TestEnableRecoveryIdempotent(t *testing.T) {
	m, _ := newMachineWithRel(2, 0, 100)
	a := m.EnableRecovery()
	b := m.EnableRecovery()
	if a != b {
		t.Error("EnableRecovery allocated two servers")
	}
}

func TestRecoveryCountsForces(t *testing.T) {
	m, r := newMachineWithRel(4, 0, 2000)
	rec := m.EnableRecovery()
	m.RunSelect(SelectQuery{
		Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 199), Path: PathHeap},
	})
	// Every store operator forces its tail page at commit; background
	// page-boundary flushes are counted but not forced.
	if rec.Forces == 0 {
		t.Error("no forced flushes recorded at commit points")
	}
	if rec.Forces > rec.Flushes {
		t.Errorf("Forces (%d) exceeds total Flushes (%d)", rec.Forces, rec.Flushes)
	}
}
