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
	for _, tc := range []struct {
		args []string
		code int
		want string // in stdout when code is 0, else in stderr
	}{
		{[]string{"-disk", "2", "-diskless", "2", "-tuples", "200"}, 0, "deleted 1 tuple in"},
		{[]string{"-disk", "0"}, 2, "gammaql: -disk 0: need at least one disk processor"},
		{[]string{"-diskless", "-1"}, 2, "gammaql: -diskless -1: must not be negative"},
		{[]string{"-tuples", "0"}, 2, "gammaql: -tuples 0: need at least 10"},
		{[]string{"-tuples", "5"}, 2, "gammaql: -tuples 5: need at least 10"},
		{[]string{"stray"}, 2, `gammaql: unexpected argument "stray"`},
	} {
		var stdout, stderr strings.Builder
		code := run(tc.args, strings.NewReader(session), &stdout, &stderr)
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
