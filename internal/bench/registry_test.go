package bench

import (
	"bytes"
	"maps"
	"testing"
)

// TestRegistryOnlyEntryPoint: every registry row is reachable by id, and an
// experiment prints the same table whoever asks for it — Lookup(id).Run alone
// or RunSuite with its caches. Run alone in a suite, an experiment reads
// exactly the relations it declares: one missing would fail the run, one
// extra would keep a relation alive for nothing.
func TestRegistryOnlyEntryPoint(t *testing.T) {
	o := tinyOptions()
	for _, row := range registry {
		e, ok := Lookup(row.id)
		if !ok {
			t.Fatalf("Lookup does not find registry row %q", row.id)
		}
		direct := renderTable(e.Run(o))
		rec := newCacheRecorder()
		if suite := renderTable(RunSuite(rec.wrap([]Experiment{e}), o, 1)[0].Table); !bytes.Equal(direct, suite) {
			t.Errorf("%s: Lookup(id).Run differs from RunSuite:\n--- Lookup ---\n%s--- RunSuite ---\n%s", row.id, direct, suite)
		}
		declared := map[genKey]bool{}
		for _, k := range e.reads(o) {
			declared[k] = true
		}
		if !maps.Equal(rec.tuples, declared) {
			t.Errorf("%s reads %v, declares %v", row.id, rec.tuples, declared)
		}
	}
}
