package core

import (
	"reflect"
	"strings"
	"testing"

	"gamma/internal/nose"
	"gamma/internal/rel"
)

func TestUtilizationReport(t *testing.T) {
	m, r := newMachineWithRel(2, 2, 2000)
	before := m.Counters()
	m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 199), Path: PathHeap}})
	var sb strings.Builder
	m.Counters().Sub(before).WriteUtilization(&sb)
	out := sb.String()
	for _, want := range []string{"host", "scheduler", "disk", "diskless", "ring", "seqR=", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// A heap scan at 4 KB pages must show the drives as the busiest
	// resource class (§5.2.2: disk-bound).
	var busiest nose.NodeCounters
	for _, n := range m.Counters().Sub(before).Nodes {
		if n.Role == "disk" && n.Drive > busiest.Drive {
			busiest = n
		}
	}
	if busiest.Drive <= busiest.CPU || busiest.Drive <= busiest.NIC {
		t.Errorf("busiest disk node: drive %v, cpu %v, nic %v; want the drive busiest\n%s",
			busiest.Drive, busiest.CPU, busiest.NIC, out)
	}
}

// TestSnapshotDeltasIsolateQueries: the counter deltas of serially run
// queries add up, field for field, to the machine's delta over all of them,
// and a window with no activity reports as empty.
func TestSnapshotDeltasIsolateQueries(t *testing.T) {
	m, r := newMachineWithRel(2, 2, 1000)
	b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1}, genTuples(100, 7))
	before := m.Counters()
	results := []Result{
		m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.True(), Path: PathHeap}}),
		m.RunJoin(JoinQuery{
			Build: ScanSpec{Rel: b, Pred: rel.True(), Path: PathHeap}, BuildAttr: rel.Unique2,
			Probe: ScanSpec{Rel: r, Pred: rel.True(), Path: PathHeap}, ProbeAttr: rel.Unique2,
		}),
		m.RunUpdate(UpdateQuery{Rel: r, Kind: DeleteByKey, Key: 123}),
	}
	total := m.Counters().Sub(before)
	sum := results[0].Counters
	for i, res := range results {
		if res.Err != nil || res.Counters.Clock <= 0 || res.Counters.Net.CtlMsgs == 0 {
			t.Fatalf("query %d: err %v, counters %+v", i, res.Err, res.Counters)
		}
		if i > 0 {
			sum = addCounters(sum, res.Counters)
		}
	}
	if !reflect.DeepEqual(sum, total) {
		t.Errorf("query deltas do not add up to the machine's delta:\n  sum %+v\ntotal %+v", sum, total)
	}

	var sb strings.Builder
	m.Counters().Sub(m.Counters()).WriteUtilization(&sb)
	if !strings.Contains(sb.String(), "empty window") {
		t.Errorf("no-op window should report empty, got:\n%s", sb.String())
	}
}

// addCounters returns a+b: every integer counter summed, labels taken from
// a. It walks the fields by reflection, so it cannot share a bug with Sub.
func addCounters(a, b Counters) Counters {
	sum := reflect.New(reflect.TypeOf(a)).Elem()
	addValues(sum, reflect.ValueOf(a), reflect.ValueOf(b))
	return sum.Interface().(Counters)
}

func addValues(dst, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Int, reflect.Int64:
		dst.SetInt(a.Int() + b.Int())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			addValues(dst.Field(i), a.Field(i), b.Field(i))
		}
	case reflect.Slice:
		dst.Set(reflect.MakeSlice(a.Type(), a.Len(), a.Len()))
		for i := 0; i < a.Len(); i++ {
			addValues(dst.Index(i), a.Index(i), b.Index(i))
		}
	default:
		dst.Set(a)
	}
}
