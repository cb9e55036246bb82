package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestRetiredIDsResolveToTombstones: an id the frozen harness pins but no
// experiment answers to resolves to a one-row table the harness counts as a
// good operation (no negative, NaN or infinite cell; not in seconds, so it
// adds no simulated time), and stays out of Experiments.
func TestRetiredIDsResolveToTombstones(t *testing.T) {
	for id := range retired {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("Lookup(%q) finds no tombstone", id)
		}
		tbl := RunSuite([]Experiment{e}, tinyOptions(), 1)[0].Table
		if tbl.ID != id || len(tbl.Rows) != 1 || !strings.HasPrefix(tbl.Title, "retired: ") {
			t.Errorf("%s: tombstone %q has %d rows, want one row under a \"retired: <why>\" title", id, tbl.Title, len(tbl.Rows))
		}
		if strings.HasPrefix(tbl.Unit, "seconds") {
			t.Errorf("%s: tombstone unit %q counts as simulated seconds", id, tbl.Unit)
		}
		for _, c := range tbl.Rows[0].Cells {
			if math.IsNaN(c.Measured) || math.IsInf(c.Measured, 0) || c.Measured < 0 {
				t.Errorf("%s: tombstone cell %v is no measurement", id, c.Measured)
			}
		}
		for _, x := range Experiments() {
			if x.ID == id {
				t.Errorf("Experiments lists the retired %q", id)
			}
		}
	}
}

// TestKernelEquivalenceSuite: the kernel options the harness still sets are
// ignored — the same experiments print the same tables and count the same
// events with or without them.
func TestKernelEquivalenceSuite(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"fig3", "table3"} {
		e, _ := Lookup(id)
		exps = append(exps, e)
	}
	run := func(o Options) (tables []byte, events int64) {
		for _, r := range RunSuite(exps, o, 1) {
			tables = append(tables, renderTable(r.Table)...)
			events += r.Events
		}
		return tables, events
	}
	o := tinyOptions()
	ref, refEvents := run(o)
	o.Kernel, o.KernelWorkers = "partitioned", 4
	if got, events := run(o); !bytes.Equal(got, ref) || events != refEvents {
		t.Errorf("Kernel/KernelWorkers moved the suite: %d events vs %d, tables equal: %v", events, refEvents, bytes.Equal(got, ref))
	}
}
