package main

import (
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	session := strings.Join([]string{
		"range of t is tenktup",
		"retrieve (t.all) where t.unique2 < 20",
		"delete t where t.unique1 = 5",
		`\quit`,
	}, "\n")
	// A statement that would replace a catalogued relation is rejected by
	// name; \relations afterwards shows both preloaded relations intact.
	taken := func(stmt string) string {
		return strings.Join([]string{"range of t is tenktup", stmt, `\relations`, `\quit`}, "\n")
	}
	const intact = "  bprime                 20 tuples  hashed on unique1\n" +
		"  tenktup               200 tuples  hashed on unique1\n"
	small := []string{"-disk", "2", "-diskless", "2", "-tuples", "200"}
	for _, tc := range []struct {
		args  []string
		in    string // stdin; session when empty
		code  int
		wants []string // in stdout when code is 0, else in stderr
	}{
		{small, "", 0, []string{"deleted 1 tuple in"}},
		{small, taken("retrieve into bprime (t.all) where t.unique2 < 5"), 0,
			[]string{`error: core: result "bprime": a relation of that name is already catalogued`, intact}},
		{small, taken("retrieve into tenktup (t.all) where t.unique2 < 5"), 0,
			[]string{`error: core: result "tenktup": a relation of that name is already catalogued`, intact}},
		{small, taken(`\load tenktup 100`), 0,
			[]string{`error: \load tenktup: a relation of that name is already catalogued`, intact}},
		{[]string{"-disk", "0"}, "", 2, []string{"gammaql: -disk 0: need at least one disk processor"}},
		{[]string{"-diskless", "-1"}, "", 2, []string{"gammaql: -diskless -1: must not be negative"}},
		{[]string{"-tuples", "0"}, "", 2, []string{"gammaql: -tuples 0: need at least 10"}},
		{[]string{"-tuples", "5"}, "", 2, []string{"gammaql: -tuples 5: need at least 10"}},
		{[]string{"stray"}, "", 2, []string{`gammaql: unexpected argument "stray"`}},
	} {
		in := tc.in
		if in == "" {
			in = session
		}
		var stdout, stderr strings.Builder
		code := run(tc.args, strings.NewReader(in), &stdout, &stderr)
		out := stdout.String()
		if code != 0 {
			out = stderr.String()
			if !strings.Contains(out, "Usage") {
				t.Errorf("run(%v): no usage on stderr:\n%s", tc.args, out)
			}
		}
		if code != tc.code {
			t.Errorf("run(%v) = %d, want %d:\n%s", tc.args, code, tc.code, out)
		}
		for _, want := range tc.wants {
			if !strings.Contains(out, want) {
				t.Errorf("run(%v) with %q: want %q in:\n%s", tc.args, in, want, out)
			}
		}
	}
}
