package main

import (
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // in stdout when code is 0, else in stderr
	}{
		{[]string{"-disk", "2", "-tuples", "200"}, 0, "range(uniform)"},
		{[]string{"-disk", "4", "-tuples", "600"}, 0, "range(user)      100/100/100/300"},
		{[]string{"-disk", "0"}, 2, "gammaload: -disk 0: need at least one disk processor"},
		{[]string{"-tuples", "0"}, 2, "gammaload: -tuples 0: need at least 1"},
		{[]string{"-tuples", "-5"}, 2, "gammaload: -tuples -5: need at least 1"},
		{[]string{"stray"}, 2, `gammaload: unexpected argument "stray"`},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
	} {
		var stdout, stderr strings.Builder
		code := run(tc.args, &stdout, &stderr)
		out := stdout.String()
		if code != 0 {
			out = stderr.String()
			if !strings.Contains(out, "Usage") {
				t.Errorf("run(%v): no usage on stderr:\n%s", tc.args, out)
			}
		}
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("run(%v) = %d, want %d with %q in:\n%s", tc.args, code, tc.code, tc.want, out)
		}
	}
}
