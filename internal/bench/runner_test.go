package bench

import (
	"bytes"
	"sync/atomic"
	"testing"
)

// tinyOptions is small enough that the whole suite runs in seconds while
// still exercising every experiment's fan-out shape.
func tinyOptions() Options {
	return Options{Sizes: []int{2000}, FigureTuples: 2000, MaxProcs: 3}
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

// TestSuiteSerialParallelIdentical runs a cross-section of the experiments —
// per-size tables, per-processor and per-page-size sweeps, the 64-256
// processor machines, the fault-injecting availability matrix — serially and
// on eight workers, and asserts the rendered tables are byte-identical. Each
// data point is an independent simulation with a fixed seed, so scheduling
// must not reach the results.
func TestSuiteSerialParallelIdentical(t *testing.T) {
	ids := []string{"table1", "table2", "table3", "fig1", "fig5", "fig9", "fig13", "scale100", "availability", "multiuser"}
	var exps []Experiment
	for _, id := range ids {
		exps = append(exps, live(t, id))
	}

	render := func(reports []Report) []byte {
		var buf bytes.Buffer
		for _, r := range reports {
			r.Table.Render(&buf)
		}
		return buf.Bytes()
	}

	serial := RunSuite(exps, tinyOptions(), 1)
	parallel := RunSuite(exps, tinyOptions(), 8)

	if len(serial) != len(exps) || len(parallel) != len(exps) {
		t.Fatalf("report counts: serial %d, parallel %d, want %d", len(serial), len(parallel), len(exps))
	}
	for i := range exps {
		if serial[i].ID != exps[i].ID || parallel[i].ID != exps[i].ID {
			t.Errorf("report %d out of order: serial %q, parallel %q, want %q",
				i, serial[i].ID, parallel[i].ID, exps[i].ID)
		}
		if serial[i].Events <= 0 || parallel[i].Events <= 0 {
			t.Errorf("%s: no simulated events counted (serial %d, parallel %d)",
				exps[i].ID, serial[i].Events, parallel[i].Events)
		}
		if serial[i].Events != parallel[i].Events {
			t.Errorf("%s: event counts differ: serial %d, parallel %d",
				exps[i].ID, serial[i].Events, parallel[i].Events)
		}
	}
	sb, pb := render(serial), render(parallel)
	if !bytes.Equal(sb, pb) {
		t.Errorf("serial and parallel tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", sb, pb)
	}
}
