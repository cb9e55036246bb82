package bench

import (
	"bytes"
	"testing"
)

// TestRegistryOnlyEntryPoint: every registry row is reachable by id, and an
// experiment prints the same table whoever asks for it — Lookup(id).Run alone
// or RunSuite with its caches.
func TestRegistryOnlyEntryPoint(t *testing.T) {
	o := tinyOptions()
	for _, row := range registry {
		e, ok := Lookup(row.id)
		if !ok {
			t.Fatalf("Lookup does not find registry row %q", row.id)
		}
		direct := renderTable(e.Run(o))
		if suite := renderTable(RunSuite([]Experiment{e}, o, 1)[0].Table); !bytes.Equal(direct, suite) {
			t.Errorf("%s: Lookup(id).Run differs from RunSuite:\n--- Lookup ---\n%s--- RunSuite ---\n%s", row.id, direct, suite)
		}
	}
}
