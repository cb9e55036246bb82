package core

import (
	"reflect"
	"strings"
	"testing"

	"gamma/internal/rel"
)

func TestUtilizationReport(t *testing.T) {
	m, r := newMachineWithRel(2, 2, 2000)
	before := m.Counters()
	m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 199), Path: PathHeap}})
	var sb strings.Builder
	m.WriteUtilization(&sb, before)
	out := sb.String()
	for _, want := range []string{"host", "scheduler", "disk", "diskless", "ring", "seqR=", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// A heap scan at 4 KB pages must show the drives as the busiest
	// resource class (§5.2.2: disk-bound).
	var busiest NodeCounters
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
	m.WriteUtilization(&sb, m.Counters())
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

// TestCountersVerdict: the binding class is the one whose busiest instance
// is the most saturated; every class with activity is listed by descending
// utilization, and a class's Busy sums all of its instances.
func TestCountersVerdict(t *testing.T) {
	v := Counters{Clock: 100, Ring: 10, Nodes: []NodeCounters{
		{Drive: 90, CPU: 60},         // disk0 90%, cpu0 60%
		{Drive: 50, NIC: 20, Ctl: 5}, // disk1 50%, nic1 20%, ctl1 5%
		{},                           // an idle node adds nothing
	}}.Verdict()
	if v.Binding != "disk" || v.Res != "disk0" || v.Util != 0.9 || v.Window != 100 {
		t.Fatalf("verdict %s (window %v); want disk-bound on disk0 at 90%% over 100µs", v, v.Window)
	}
	var order, res []string
	for _, cu := range v.Classes {
		order = append(order, cu.Class)
		res = append(res, cu.Res)
	}
	if want := []string{"disk", "cpu", "nic", "ring", "ctl"}; !reflect.DeepEqual(order, want) {
		t.Errorf("class order %v, want %v", order, want)
	}
	if want := []string{"disk0", "cpu0", "nic1", "ring", "ctl1"}; !reflect.DeepEqual(res, want) {
		t.Errorf("class instances %v, want %v", res, want)
	}
	if v.Classes[0].Busy != 140 {
		t.Errorf("disk class busy %v, want 140µs", v.Classes[0].Busy)
	}
}

// TestCountersVerdictTieBreak: at an exact utilization tie between classes
// the physically scarcer one binds (disk, nic, cpu, ring, then ctl), and at a
// tie between instances of a class the lowest node id is named.
func TestCountersVerdictTieBreak(t *testing.T) {
	v := Counters{Clock: 100, Ring: 50, Nodes: []NodeCounters{
		{CPU: 50, Ctl: 50},
		{Drive: 50, NIC: 50, CPU: 50},
		{Drive: 50},
	}}.Verdict()
	var got []string
	for _, cu := range v.Classes {
		got = append(got, cu.Res)
	}
	if want := []string{"disk1", "nic1", "cpu0", "ring", "ctl0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("tie order %v, want %v", got, want)
	}
	if v.Binding != "disk" || v.Res != "disk1" {
		t.Errorf("tie-break binding %s on %s, want disk1", v.Binding, v.Res)
	}
}

// TestCountersVerdictIdle: a window without activity, or without length,
// binds nothing and reads "idle".
func TestCountersVerdictIdle(t *testing.T) {
	for _, c := range []Counters{{Clock: 100, Nodes: make([]NodeCounters, 3)}, {}} {
		v := c.Verdict()
		if v.Binding != "" || len(v.Classes) != 0 {
			t.Errorf("verdict of %+v = %+v, want idle", c, v)
		}
		if s := v.String(); s != "idle (no resource activity in window)" {
			t.Errorf("idle verdict string = %q", s)
		}
	}
}

func TestVerdictString(t *testing.T) {
	got := Counters{Clock: 1000, Ring: 6, Nodes: []NodeCounters{
		{Drive: 972, CPU: 410},
		{NIC: 124, Ctl: 30},
	}}.Verdict().String()
	want := "disk-bound (disk0 at 97.2%); cpu 41.0%, nic 12.4%, ctl 3.0%, ring 0.6%"
	if got != want {
		t.Errorf("verdict = %q, want %q", got, want)
	}
}
