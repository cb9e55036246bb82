package bench

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// golden is what `gammabench -quick` prints, tables and fidelity footer. It
// pins every simulated number the suite reports; a change that moves one
// regenerates it, and its git diff is the change's cell diff.
const golden, regenerate = "testdata/quick.txt", "go run ./cmd/gammabench -quick -parallel 1 > internal/bench/testdata/quick.txt"

// movedLines renders reports and returns the golden's lines, the rendered
// ones and the indexes where they differ, line i against line i ("" past an end).
func movedLines(t *testing.T, reports []Report) (want, got []string, moved []int) {
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	RenderSuite(&out, reports)
	want, got = strings.Split(string(b), "\n"), strings.Split(out.String(), "\n")
	for i := range max(len(want), len(got)) {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			moved = append(moved, i)
		}
	}
	pad := func(l []string) []string { return append(l, make([]string, len(moved))...) }
	return pad(want), pad(got), moved
}

// TestResultDigests checks every result oracle on the Quick() run: the golden,
// byte for byte, and each table's facts (facts_test.go) and well-formedness.
func TestResultDigests(t *testing.T) {
	reports := quick(t).reports
	want, got, moved := movedLines(t, reports)
	for _, i := range moved[:min(40, len(moved))] {
		t.Errorf("%s:%d moved\n-%s\n+%s", golden, i+1, want[i], got[i])
	}
	if len(moved) > 0 {
		t.Errorf("%d lines moved; if that is meant, regenerate the golden and commit its diff: %s", len(moved), regenerate)
	}
	for _, r := range reports {
		if err := wellFormed(r.Table); err != nil {
			t.Errorf("%s: %v", r.ID, err)
		}
		for _, err := range checkFacts(r.ID, r.Table) {
			t.Error(err)
		}
	}
}

// TestGoldenIsACellDiff: the recorded run renders the golden every time; with
// one cell moved it differs in that cell's row and in the footer's lines for
// its column, its table and the total; its score is the ledger's
// paper_err_gmean.
func TestGoldenIsACellDiff(t *testing.T) {
	reports := quick(t).reports
	doctored := slices.Clone(reports)
	i := slices.IndexFunc(doctored, func(r Report) bool { return r.ID == "table2" })
	tbl := cloneTable(doctored[i].Table)
	tbl.Rows[0].Cells[1].Measured *= 1.1
	doctored[i].Table = tbl
	for _, c := range []struct {
		name    string
		reports []Report
		want    []string // the labels of the golden lines the rendering differs in
	}{
		{"rendered once", reports, nil},
		{"rendered again", reports, nil},
		{"table2's first 10000 Gamma cell x1.1", doctored, []string{tbl.Rows[0].Label,
			"table2  10000 Gamma", "table2  at 10000 and 100000 tuples", "total  at 10000 and 100000 tuples"}},
	} {
		want, _, moved := movedLines(t, c.reports)
		var got []string
		for _, i := range moved {
			got = append(got, strings.TrimSpace(want[i][:min(46, len(want[i]))]))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: differs from the golden in lines %q, want %q", c.name, got, c.want)
		}
	}

	var s Score
	for _, r := range reports {
		for _, row := range r.Table.Rows {
			for _, c := range row.Cells {
				s.Add(c)
			}
		}
	}
	if s.Value() != 0.21707328947743254 || s.Cells != 71 {
		t.Errorf("the quick suite scores %v over %d cells, the ledger's paper_err_gmean 0.21707328947743254 over 71", s.Value(), s.Cells)
	}
}
