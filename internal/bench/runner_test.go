package bench

import (
	"bytes"
	"sync/atomic"
	"testing"
)

// tinyOptions is small enough that the whole suite runs in seconds while
// still exercising every experiment's fan-out shape. Eight processors let
// Figure 10 reach the point bitvector plots.
func tinyOptions() Options {
	return Options{Sizes: []int{2000}, FigureTuples: 2000, MaxProcs: 8}
}

func TestParMapPreservesOrder(t *testing.T) {
	o := Options{run: &runCtx{sem: make(chan struct{}, 4)}}
	got := parMap(o, 100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestParMapSerialWithoutSemaphore(t *testing.T) {
	var calls atomic.Int32
	got := parMap(Options{}, 5, func(i int) int32 { return calls.Add(1) })
	// Serial execution evaluates strictly in order.
	for i, v := range got {
		if v != int32(i+1) {
			t.Fatalf("serial parMap out of order: out[%d] = %d", i, v)
		}
	}
}

// TestSuiteSerialParallelIdentical: the whole registry run serially and in
// reverse on eight workers — per-size tables, per-processor and
// per-page-size sweeps, the 64-256 processor machines — prints
// byte-identical tables, with the reports in the order the experiments were
// given. Each data point is an independent simulation with a fixed seed, so
// scheduling must not reach the results. (TestSharedMatchesUnshared holds
// each run's events to the experiments' own.)
func TestSuiteSerialParallelIdentical(t *testing.T) {
	exps := Experiments()
	serial, parallel := serialRun().reports, parallelRun().reports
	if len(serial) != len(exps) || len(parallel) != len(exps) {
		t.Fatalf("report counts: serial %d, parallel %d, want %d", len(serial), len(parallel), len(exps))
	}
	for i, e := range exps {
		s, p := serial[i], parallel[len(exps)-1-i]
		if s.ID != e.ID || p.ID != e.ID {
			t.Errorf("reports out of order: serial %q, parallel %q, want %q", s.ID, p.ID, e.ID)
		} else if sb, pb := renderTable(s.Table), renderTable(p.Table); !bytes.Equal(sb, pb) {
			t.Errorf("%s: serial and parallel tables differ:\n--- serial ---\n%s--- parallel ---\n%s", e.ID, sb, pb)
		}
	}
}
