package quel

// Round-trip fuzzing of the QUEL parser: any accepted input must print to a
// canonical form that parses again and is a fixed point of print∘parse. The
// seed corpus spells each statement form of gammaql's \help once, plus one
// variant per form; CI runs FuzzParseRoundTrip as a short smoke on top of the
// deterministic corpus test.

import (
	"testing"
)

// seedStatements are the \help statement forms and grammar-corner variants.
var seedStatements = []string{
	"range of t is tenktup",
	"retrieve (t.all) where t.unique2 < 100",
	"retrieve into res (t.all) where t.unique1 >= 100 and t.unique1 <= 199",
	"retrieve (t.unique1, t.unique2) where t.unique2 < 100",
	"retrieve (count(t.unique1)) by t.ten",
	"retrieve (max(t.unique2)) where t.unique2 < 100",
	"retrieve into j (a.all) where a.unique2 = b.unique2 and b.unique2 < 1000",
	"append to tenktup (unique1 = 7, unique2 = 12)",
	"delete t where t.unique1 = 55",
	"replace t (ten = 3) where t.unique1 = 55",
	"RETRIEVE (T.all) WHERE 50 > T.unique2 AND -5 <= T.unique2",
	"retrieve (avg(t.onePercent)) by t.twenty where t.fiftyPercent = 0",
	"",
	"   ",
}

// roundTrip asserts the fixed-point property for one accepted statement and
// returns its canonical form.
func roundTrip(t *testing.T, line string) string {
	t.Helper()
	st, err := Parse(line)
	if err != nil {
		t.Fatalf("Parse(%q): %v", line, err)
	}
	if st == nil {
		return ""
	}
	canon := st.String()
	st2, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical form %q (of %q) fails to parse: %v", canon, line, err)
	}
	if again := st2.String(); again != canon {
		t.Fatalf("print/parse is not a fixed point:\n input %q\n canon %q\n again %q", line, canon, again)
	}
	return canon
}

// TestParseSeedCorpus keeps the fuzz seeds passing deterministically, so the
// corpus stays valid even when no fuzz engine runs.
func TestParseSeedCorpus(t *testing.T) {
	for _, line := range seedStatements {
		roundTrip(t, line)
	}
}

// TestParseCanonical pins the canonical spelling: lowercase keywords, single
// spaces, normalized integer constants, names verbatim.
func TestParseCanonical(t *testing.T) {
	tests := []struct{ in, want string }{
		{"range  OF t IS tenktup", "range of t is tenktup"},
		{"RETRIEVE(t.ALL)WHERE t.unique2<007", "retrieve (t.all) where t.unique2 < 7"},
		{"retrieve into j (a.all) where a.unique2=b.unique2", "retrieve into j (a.all) where a.unique2 = b.unique2"},
		{"retrieve ( COUNT ( t . unique1 ) ) BY t.ten", "retrieve (count(t.unique1)) by t.ten"},
		{"retrieve (t.unique1,t.unique2)", "retrieve (t.unique1, t.unique2)"},
		{"append to r(unique1=-0,two=12)", "append to r (unique1 = 0, two = 12)"},
		{"delete t where 55=t.unique1", "delete t where 55 = t.unique1"},
		{"replace t ( ten=3 ) where t.unique1>=55", "replace t (ten = 3) where t.unique1 >= 55"},
	}
	for _, tc := range tests {
		st, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := st.String(); got != tc.want {
			t.Errorf("canonical(%q) = %q, want %q", tc.in, got, tc.want)
		}
		roundTrip(t, tc.in)
	}
}

// TestParseRejects pins the syntax errors Parse must produce without any
// session state.
func TestParseRejects(t *testing.T) {
	bad := []string{
		"frobnicate",
		"range of , is tenktup",
		"retrieve (t.all) where t.bogus = 1",
		"retrieve (t.all) where 1 = 2",
		"retrieve (t.all) where t.unique1 < b.unique1",
		"retrieve (t.all) where t.unique1 = b.unique1 and t.unique2 = b.unique2",
		"retrieve (t.unique1, b.unique2)",
		"retrieve (t.all) extra",
		"delete t",
		"replace t (ten = x) where t.unique1 = 5",
		"append to r (unique1 = )",
		"range of t is tenktup garbage",
	}
	for _, line := range bad {
		if st, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) = %v, want error", line, st)
		}
	}
}

// FuzzParseRoundTrip feeds arbitrary lines through Parse; whatever is
// accepted must print to a canonical form that re-parses to the same string.
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range seedStatements {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		st, err := Parse(line)
		if err != nil || st == nil {
			return
		}
		canon := st.String()
		st2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) fails to parse: %v", canon, line, err)
		}
		if again := st2.String(); again != canon {
			t.Fatalf("print/parse is not a fixed point:\n input %q\n canon %q\n again %q", line, canon, again)
		}
	})
}
