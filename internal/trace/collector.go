package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
)

// Collector is the standard Sink: an in-memory log of the event stream in
// emission order.
//
// The simulation kernel's strict hand-off discipline means Emit is never
// called concurrently, so the Collector needs no locking.
type Collector struct {
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit appends one event.
func (c *Collector) Emit(e Event) { c.events = append(c.events, e) }

// Events returns the raw event stream in emission order.
func (c *Collector) Events() []Event { return c.events }

// Len returns the number of collected events.
func (c *Collector) Len() int { return len(c.events) }

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
