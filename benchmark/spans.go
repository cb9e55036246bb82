package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans are
// kept in memory and written as JSONL when the harness exits. Parent 0 means
// a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
}

// recorder collects spans. A nil *recorder records nothing, so untraced
// repetitions run the same code without the bookkeeping.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(parent int, name, layer string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		StartNS: time.Since(r.epoch).Nanoseconds()})
	return id
}

// end closes span id, recording how many units of work it covered.
func (r *recorder) end(id int, count int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = time.Since(r.epoch).Nanoseconds()
	s.Count = count
}

// add records a span whose interval was measured elsewhere (bench.setup's
// duration comes from Report.Setup, not from a clock the harness holds).
func (r *recorder) add(parent int, name, layer string, startNS, endNS, count int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Layer: layer,
		StartNS: startNS, EndNS: endNS, Count: count})
}

func (r *recorder) startOf(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].StartNS
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children (experiments
// running on several suite workers) are merged before subtracting, and a
// child is clipped to its parent's interval (bench.setup is cumulative and
// can be longer than the experiment that paid it).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
		covered, upto := int64(0), s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, upto), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerSelfSeconds sums self time by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	out := map[string]float64{}
	for id, ns := range selfTimes(spans) {
		out[spans[id-1].Layer] += float64(ns) / 1e9
	}
	return out
}

// tracedSpans is the span set of one traced child, tagged for the JSONL file.
type tracedSpans struct {
	Workload string
	Process  string // "suite" or "probes"
	Spans    []span
}

// writeSpans writes every span as one JSON object per line, gzipped when the
// path ends in ".gz". Ids are unique per (workload, process).
func writeSpans(path string, sets []tracedSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
	}
	enc := json.NewEncoder(w)
	for _, set := range sets {
		for _, s := range set.Spans {
			line := struct {
				Workload string `json:"workload"`
				Process  string `json:"process"`
				span
			}{set.Workload, set.Process, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return f.Close()
}
