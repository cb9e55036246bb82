package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// ival is one service interval on a resource.
type ival struct {
	start, end int64
}

// Span is one bracketed region of the timeline: a query, or a phase inside
// an operator.
type Span struct {
	ID    string // query id, or "op/phase"
	Node  int
	Site  int
	Start int64
	End   int64 // -1 while still open
	N     int   // tuples produced (phase spans), when reported
}

// Dur returns the span length in microseconds (0 for open spans).
func (s Span) Dur() int64 {
	if s.End < 0 {
		return 0
	}
	return s.End - s.Start
}

// Collector accumulates the event stream into an in-memory timeline:
// the raw events in emission order, per-resource service intervals, and
// query and phase spans. It is the standard Sink.
//
// The simulation kernel's strict hand-off discipline means Emit is never
// called concurrently, so the Collector needs no locking.
type Collector struct {
	events []Event

	// intervals holds each resource's service intervals in schedule order.
	// FIFO resources serve in arrival order from a single busy horizon, so
	// per-resource intervals are non-overlapping with non-decreasing starts.
	intervals map[string][]ival
	resNames  []string // registration order

	queries   []Span
	openQuery map[string]int // query id -> index in queries
	phases    []Span
	openPhase map[string]int // "op@site/phase" -> index in phases

	ctls []Event // KindCtlMsg events carrying a Dur cost, in emission order
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		intervals: map[string][]ival{},
		openQuery: map[string]int{},
		openPhase: map[string]int{},
	}
}

// Emit appends one event and updates the derived timeline.
func (c *Collector) Emit(e Event) {
	c.events = append(c.events, e)
	switch e.Kind {
	case KindRelease:
		if _, ok := c.intervals[e.Res]; !ok {
			c.resNames = append(c.resNames, e.Res)
		}
		c.intervals[e.Res] = append(c.intervals[e.Res], ival{e.Start, e.End})
	case KindQueryStart:
		c.openQuery[e.Query] = len(c.queries)
		c.queries = append(c.queries, Span{ID: e.Query, Start: e.At, End: -1})
	case KindQueryDone:
		if i, ok := c.openQuery[e.Query]; ok {
			c.queries[i].End = e.At
			delete(c.openQuery, e.Query)
		}
	case KindPhaseStart:
		k := opKey(e.Op, e.Site) + "/" + e.Class
		c.openPhase[k] = len(c.phases)
		c.phases = append(c.phases, Span{ID: e.Op + "/" + e.Class, Node: e.Node, Site: e.Site, Start: e.At, End: -1})
	case KindPhaseDone:
		k := opKey(e.Op, e.Site) + "/" + e.Class
		if i, ok := c.openPhase[k]; ok {
			c.phases[i].End = e.At
			c.phases[i].N = e.N
			delete(c.openPhase, k)
		}
	case KindCtlMsg:
		if e.Dur > 0 {
			c.ctls = append(c.ctls, e)
		}
	}
}

func opKey(op string, site int) string { return fmt.Sprintf("%s@%d", op, site) }

// Events returns the raw event stream in emission order.
func (c *Collector) Events() []Event { return c.events }

// Len returns the number of collected events.
func (c *Collector) Len() int { return len(c.events) }

// Queries returns every query span in start order.
func (c *Collector) Queries() []Span { return c.queries }

// Query returns the span of a query by id.
func (c *Collector) Query(id string) (Span, bool) {
	for _, q := range c.queries {
		if q.ID == id {
			return q, true
		}
	}
	return Span{}, false
}

// MergedPhases folds per-site phase spans into one span per phase label
// (earliest start, latest end, summed N) in first-seen order — the unit the
// §6.2 analysis reasons about ("the build phase", "the probe phase").
func (c *Collector) MergedPhases() []Span {
	var order []string
	merged := map[string]Span{}
	for _, ph := range c.phases {
		if ph.End < 0 {
			continue
		}
		m, ok := merged[ph.ID]
		if !ok {
			order = append(order, ph.ID)
			m = Span{ID: ph.ID, Node: -1, Site: -1, Start: ph.Start, End: ph.End}
		} else {
			if ph.Start < m.Start {
				m.Start = ph.Start
			}
			if ph.End > m.End {
				m.End = ph.End
			}
		}
		m.N += ph.N
		merged[ph.ID] = m
	}
	out := make([]Span, 0, len(order))
	for _, id := range order {
		out = append(out, merged[id])
	}
	return out
}

// Of returns the events of the given kinds, in emission order.
func (c *Collector) Of(kinds ...Kind) []Event {
	var out []Event
	for _, e := range c.events {
		if slices.Contains(kinds, e.Kind) {
			out = append(out, e)
		}
	}
	return out
}

// Busy returns the total service time resource res delivered inside the
// window [from, to].
func (c *Collector) Busy(res string, from, to int64) int64 {
	ivs := c.intervals[res]
	// Binary-search the first interval that could overlap the window.
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].end > from })
	var busy int64
	for ; i < len(ivs); i++ {
		iv := ivs[i]
		if iv.start >= to {
			break
		}
		s, e := iv.start, iv.end
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			busy += e - s
		}
	}
	return busy
}

// WriteJSONL writes every event as one JSON object per line, in emission
// order. The output is byte-identical across runs with the same seed and
// configuration (the determinism the resume/calibration story depends on).
// Writes are buffered so a large trace costs one syscall per buffer fill
// rather than one per event; the single final Flush reports any write error.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range c.events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
