package bench

import (
	"maps"
	"testing"
)

// TestRegistryOnlyEntryPoint: every registry row is reachable by id, and run
// alone in a suite, an experiment reads exactly the relations it declares:
// one missing would fail the run, one extra would keep a relation alive for
// nothing. (That Lookup(id).Run prints what RunSuite does is
// TestCachedTablesMatchUncached's comparison of the uncached and alone runs.)
func TestRegistryOnlyEntryPoint(t *testing.T) {
	alone := aloneRun()
	for _, row := range registry {
		e, ok := Lookup(row.id)
		if !ok {
			t.Fatalf("Lookup does not find registry row %q", row.id)
		}
		declared := map[genKey]bool{}
		for _, k := range e.reads(tinyOptions()) {
			declared[k.genKey] = true
		}
		if got := alone[row.id].rec.relations(); !maps.Equal(got, declared) {
			t.Errorf("%s reads %v, declares %v", row.id, got, declared)
		}
	}
}
