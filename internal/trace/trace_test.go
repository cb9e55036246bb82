package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

func collect(events ...Event) *Collector {
	c := NewCollector()
	for _, e := range events {
		c.Emit(e)
	}
	return c
}

func svc(res string, start, end int64) Event {
	return Event{At: start, Kind: KindService, Res: res, Start: start, End: end}
}

func TestQueryAndOpSpans(t *testing.T) {
	c := collect(
		Event{At: 0, Kind: KindQueryStart, Query: "q1"},
		Event{At: 5, Kind: KindOpStart, Op: "select", Node: 2, Site: 0},
		Event{At: 5, Kind: KindOpStart, Op: "select", Node: 3, Site: 1},
		svc("disk0", 5, 30),
		Event{At: 40, Kind: KindOpDone, Op: "select", Node: 2, Site: 0, N: 7},
		Event{At: 45, Kind: KindOpDone, Op: "select", Node: 3, Site: 1, N: 9},
		Event{At: 50, Kind: KindQueryDone, Query: "q1"},
	)
	if c.Len() != 7 || len(c.Events()) != 7 {
		t.Fatalf("collected %d events, want 7", c.Len())
	}
	q := c.Of(KindQueryStart, KindQueryDone)
	if len(q) != 2 || q[0].At != 0 || q[1].At != 50 || q[1].Query != "q1" {
		t.Errorf("query events = %+v, want q1 from 0 to 50", q)
	}
	ops := c.Of(KindOpStart, KindOpDone)
	if len(ops) != 4 {
		t.Fatalf("got %d operator events, want 4", len(ops))
	}
	if last := ops[3]; last.Kind != KindOpDone || last.Site != 1 || last.N != 9 || last.At != 45 {
		t.Errorf("last operator event = %+v, want site 1 done at 45 with N=9", last)
	}
}

func TestOfFiltersByKindInEmissionOrder(t *testing.T) {
	c := collect(
		Event{At: 1, Kind: KindFault, Class: "node-crash", Node: 4},
		svc("disk0", 0, 2),
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
		{At: 3, Kind: KindService, Res: "disk0", Start: 5, End: 9},
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
