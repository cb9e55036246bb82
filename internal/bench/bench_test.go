package bench

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"gamma/internal/rel"
)

// TestRegistryComplete: the registry and DESIGN.md's per-experiment index
// list the same ids — the only two places that list them all.
func TestRegistryComplete(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(design), "\n## 3. Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## 3. Per-experiment index\" section")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(index, -1) {
		documented[m[1]] = true
	}
	for _, e := range Experiments() {
		if !documented[e.ID] {
			t.Errorf("experiment %q is registered but missing from DESIGN.md §3", e.ID)
		}
		delete(documented, e.ID)
	}
	for id := range documented {
		t.Errorf("DESIGN.md §3 lists %q, which is not registered", id)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted a bogus id")
	}
}

func TestRenderShowsPaperValues(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo", Unit: "seconds",
		Columns: []string{"a"},
		Rows:    []Row{{Label: "row", Cells: []Cell{{Measured: 1.5, Paper: 2.5, Extra: "ovf=3"}}}},
		Notes:   []string{"a note"},
	}
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "1.50", "2.50", "ovf=3", "a note", "seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestSpeedupsReference(t *testing.T) {
	times := []float64{100, 50, 25}
	sp := speedups(times, 0, 1)
	if sp[0] != 1 || sp[1] != 2 || sp[2] != 4 {
		t.Errorf("speedups = %v", sp)
	}
	// 2-processor reference scaled to 2.
	sp2 := speedups(times, 1, 2)
	if sp2[1] != 2 || sp2[2] != 4 || sp2[0] != 1 {
		t.Errorf("2-ref speedups = %v", sp2)
	}
}

func TestPctPredicates(t *testing.T) {
	if p := pct(rel.Unique2, 10000, 1); p.Lo != 0 || p.Hi != 99 || p.Attr != rel.Unique2 {
		t.Errorf("1%% pred = %+v", p)
	}
	p0 := pct(rel.Unique2, 10000, 0)
	if p0.Attr != rel.Unique2 {
		t.Error("0% pred lost its attribute (breaks indexed 0% plans)")
	}
	var tp rel.Tuple
	for v := int32(0); v < 100; v++ {
		tp.Set(rel.Unique2, v)
		if p0.Match(tp) {
			t.Fatal("0% pred matched a tuple")
		}
	}
}

func TestPaperValueTables(t *testing.T) {
	// Spot-check the transcribed published values against the paper text.
	if got := paperOf(paperTable1, "1% nonindexed selection", 100000, 1); got != 13.83 {
		t.Errorf("table1 gamma 100k 1%% = %v", got)
	}
	if got := paperOf(paperTable1, "10% nonindexed selection", 1000000, 0); got != 1106.86 {
		t.Errorf("table1 tera 1M 10%% = %v", got)
	}
	if got := paperOf(paperTable2, "joinABprime, non-key join attribute", 1000000, 1); got != 2938.2 {
		t.Errorf("table2 gamma 1M ABprime = %v", got)
	}
	if got := paperOf(paperTable3, "modify 1 tuple (key attribute)", 1000000, 0); got != 4.82 {
		t.Errorf("table3 tera 1M modify-key = %v", got)
	}
	if got := paperOf(paperTable1, "1% nonindexed selection", 12345, 1); got != 0 {
		t.Errorf("unknown size should give 0, got %v", got)
	}
}

// TestQuickExperimentsSane runs the cheapest experiments end-to-end at a
// tiny scale, off the digest run's sizes, and requires well-formed tables.
func TestQuickExperimentsSane(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	o := Options{Sizes: []int{10000}, FigureTuples: 10000, MaxProcs: 4}
	for _, id := range []string{"fig1", "fig2", "fig13", "bitvector", "multiuser"} {
		e, _ := Lookup(id)
		if err := wellFormed(e.Run(o)); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestFig2SpeedupShape: the headline claim — near-linear selection speedup —
// at a scale of its own: 20,000 tuples on at most 4 processors.
func TestFig2SpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	o := Options{FigureTuples: 20000, MaxProcs: 4}
	e, _ := Lookup("fig2")
	tbl := e.Run(o)
	last := tbl.Rows[len(tbl.Rows)-1]
	for i, c := range last.Cells {
		if c.Measured < 3.2 || c.Measured > 4.0 {
			t.Errorf("speedup at 4 processors, curve %d = %.2f; want near-linear", i, c.Measured)
		}
	}
}
