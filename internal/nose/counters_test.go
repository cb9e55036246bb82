package nose

import (
	"reflect"
	"testing"
)

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
