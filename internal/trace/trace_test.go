package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

func TestResClass(t *testing.T) {
	tests := []struct{ name, want string }{
		{"cpu0", "cpu"},
		{"cpu12", "cpu"},
		{"disk5", "disk"},
		{"nic3", "nic"},
		{"ring", "ring"},
		{"42", "42"},
		{"", ""},
	}
	for _, tc := range tests {
		if got := ResClass(tc.name); got != tc.want {
			t.Errorf("ResClass(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func collect(events ...Event) *Collector {
	c := NewCollector()
	for _, e := range events {
		c.Emit(e)
	}
	return c
}

func rel(res string, start, end int64) Event {
	return Event{At: end, Kind: KindRelease, Res: res, Start: start, End: end}
}

func TestBusyWindows(t *testing.T) {
	c := collect(
		rel("disk0", 0, 10),
		rel("disk0", 10, 30),
		rel("disk0", 50, 60),
	)
	tests := []struct {
		from, to int64
		want     int64
	}{
		{0, 60, 40},
		{0, 10, 10},
		{5, 15, 10},  // straddles two intervals
		{30, 50, 0},  // idle gap
		{55, 100, 5}, // clipped tail
		{60, 60, 0},  // empty window
	}
	for _, tc := range tests {
		if got := c.Busy("disk0", tc.from, tc.to); got != tc.want {
			t.Errorf("Busy(disk0, %d, %d) = %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
	if got := c.Busy("nope", 0, 100); got != 0 {
		t.Errorf("Busy on unknown resource = %d, want 0", got)
	}
}

func TestDiagnose(t *testing.T) {
	c := collect(
		rel("disk0", 0, 90), // 90% of [0,100]
		rel("disk1", 0, 50), // 50%
		rel("cpu0", 0, 60),  // 60%
		rel("ring", 0, 10),  // 10%
	)
	v := c.Diagnose(0, 100)
	if v.Binding != "disk" || v.Res != "disk0" {
		t.Fatalf("Diagnose: binding %s/%s, want disk/disk0 (%v)", v.Binding, v.Res, v)
	}
	if v.Util != 0.9 {
		t.Errorf("Diagnose: util %.2f, want 0.90", v.Util)
	}
	// Classes sorted by descending utilization of the busiest instance.
	var order []string
	for _, cu := range v.Classes {
		order = append(order, cu.Class)
	}
	if want := []string{"disk", "cpu", "ring"}; !reflect.DeepEqual(order, want) {
		t.Errorf("class order %v, want %v", order, want)
	}
	// Busy sums across the class, not just the busiest instance.
	if v.Classes[0].Busy != 140 {
		t.Errorf("disk class busy %d, want 140", v.Classes[0].Busy)
	}
}

func TestDiagnoseTieBreak(t *testing.T) {
	// Exact utilization tie: the scarcer class (disk before cpu) wins.
	c := collect(rel("cpu0", 0, 50), rel("disk0", 0, 50))
	if v := c.Diagnose(0, 100); v.Binding != "disk" {
		t.Errorf("tie-break binding %s, want disk", v.Binding)
	}
}

func TestDiagnoseEmpty(t *testing.T) {
	c := NewCollector()
	v := c.Diagnose(0, 100)
	if v.Binding != "" || len(v.Classes) != 0 {
		t.Errorf("empty diagnose = %+v, want idle", v)
	}
	if s := v.String(); s != "idle (no resource activity in window)" {
		t.Errorf("idle verdict string = %q", s)
	}
}

func TestVerdictString(t *testing.T) {
	c := collect(rel("disk3", 0, 97), rel("cpu1", 0, 41))
	got := c.Diagnose(0, 100).String()
	want := "disk-bound (disk3 at 97.0%); cpu 41.0%"
	if got != want {
		t.Errorf("verdict = %q, want %q", got, want)
	}
}

func TestQueryAndOpSpans(t *testing.T) {
	c := collect(
		Event{At: 0, Kind: KindQueryStart, Query: "q1"},
		Event{At: 5, Kind: KindOpStart, Op: "select", Node: 2, Site: 0},
		Event{At: 5, Kind: KindOpStart, Op: "select", Node: 3, Site: 1},
		Event{At: 40, Kind: KindOpDone, Op: "select", Node: 2, Site: 0, N: 7},
		Event{At: 45, Kind: KindOpDone, Op: "select", Node: 3, Site: 1, N: 9},
		Event{At: 50, Kind: KindQueryDone, Query: "q1"},
	)
	q, ok := c.Query("q1")
	if !ok || q.Start != 0 || q.End != 50 {
		t.Fatalf("query span = %+v, ok=%v", q, ok)
	}
	ops := c.Of(KindOpStart, KindOpDone)
	if len(ops) != 4 {
		t.Fatalf("got %d operator events, want 4", len(ops))
	}
	if last := ops[3]; last.Kind != KindOpDone || last.Site != 1 || last.N != 9 || last.At != 45 {
		t.Errorf("last operator event = %+v, want site 1 done at 45 with N=9", last)
	}
	if _, ok := c.Query("q2"); ok {
		t.Error("found nonexistent query")
	}
}

func TestMergedPhases(t *testing.T) {
	c := collect(
		Event{At: 10, Kind: KindPhaseStart, Op: "join1", Site: 0, Class: "build"},
		Event{At: 12, Kind: KindPhaseStart, Op: "join1", Site: 1, Class: "build"},
		Event{At: 30, Kind: KindPhaseDone, Op: "join1", Site: 0, Class: "build", N: 3},
		Event{At: 35, Kind: KindPhaseDone, Op: "join1", Site: 1, Class: "build", N: 4},
		Event{At: 35, Kind: KindPhaseStart, Op: "join1", Site: 0, Class: "probe"},
		Event{At: 60, Kind: KindPhaseDone, Op: "join1", Site: 0, Class: "probe", N: 11},
	)
	merged := c.MergedPhases()
	if len(merged) != 2 {
		t.Fatalf("got %d merged phases, want 2: %+v", len(merged), merged)
	}
	b := merged[0]
	if b.ID != "join1/build" || b.Start != 10 || b.End != 35 || b.N != 7 {
		t.Errorf("merged build = %+v", b)
	}
	if merged[1].ID != "join1/probe" || merged[1].N != 11 {
		t.Errorf("merged probe = %+v", merged[1])
	}
}

func TestOfFiltersByKindInEmissionOrder(t *testing.T) {
	c := collect(
		Event{At: 1, Kind: KindFault, Class: "node-crash", Node: 4},
		rel("disk0", 0, 2),
		Event{At: 3, Kind: KindFailover, Class: "abort"},
		Event{At: 4, Kind: KindFault, Class: "drive-fail", Node: 5},
		Event{At: 5, Kind: KindFailover, Class: "retry"},
	)
	var got []int64
	for _, e := range c.Of(KindFault, KindFailover) {
		got = append(got, e.At)
	}
	if want := []int64{1, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Of(fault, failover) at %v, want %v", got, want)
	}
	if evs := c.Of(KindHeal); len(evs) != 0 {
		t.Errorf("Of(heal) = %v, want none", evs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{At: 0, Kind: KindQueryStart, Query: "q1"},
		{At: 3, Kind: KindAcquire, Res: "disk0", Wait: 2},
		{At: 9, Kind: KindRelease, Res: "disk0", Start: 5, End: 9},
		{At: 9, Kind: KindDiskOp, Res: "disk0", Class: "seq-read", Bytes: 4096, File: 1, Page: 7},
		{At: 12, Kind: KindPacket, Class: "data", From: 2, To: 4, Bytes: 2048},
		{At: 20, Kind: KindQueryDone, Query: "q1"},
	}
	c := collect(events...)
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

// errWriter fails after accepting limit bytes, forcing the buffered
// WriteJSONL path to surface the error from its final Flush.
type errWriter struct{ limit int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errors.New("disk full")
	}
	w.limit -= len(p)
	return len(p), nil
}

func TestWriteJSONLPropagatesWriteErrors(t *testing.T) {
	c := collect(
		Event{At: 0, Kind: KindQueryStart, Query: "q1"},
		Event{At: 20, Kind: KindQueryDone, Query: "q1"},
	)
	if err := c.WriteJSONL(&errWriter{limit: 10}); err == nil {
		t.Error("WriteJSONL swallowed the write error")
	}
}
