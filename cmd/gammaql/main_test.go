package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

func TestRun(t *testing.T) {
	// A statement that would replace a catalogued relation is rejected by
	// name; \relations afterwards shows both preloaded relations intact.
	taken := func(stmt string) string {
		return strings.Join([]string{"range of a is A", stmt, `\relations`, `\quit`}, "\n")
	}
	const intact = "  A                     200 tuples  hashed on unique1\n" +
		"  Bprime                 20 tuples  hashed on unique1\n"
	small := []string{"-disk", "2", "-diskless", "2", "-tuples", "200"}
	with := func(args ...string) []string { return append(append([]string{}, small...), args...) }
	dir := t.TempDir()
	out1, out2 := filepath.Join(dir, "1.jsonl"), filepath.Join(dir, "2.jsonl")
	join := []string{"-e", "range of a is A", "-e", "range of b is Bprime", "-e", `\mode local`,
		"-e", "retrieve into j (a.all) where a.unique2 = b.unique2"}
	type row struct {
		args  []string
		in    string // stdin
		code  int
		wants []string // in stdout and stderr; a usage on stderr when code is 2
		match string   // a regular expression stdout must match, if set
	}
	for _, group := range []struct {
		name string
		rows []row
	}{
		{"Shell", []row{
			{small, "range of a is A\nretrieve (a.all) where a.unique2 < 20\ndelete a where a.unique1 = 5\n\\quit", 0,
				[]string{"20 tuples in ", "deleted 1 tuple in", "window:", "verdict:"}, ""},
			{small, taken("retrieve into Bprime (a.all) where a.unique2 < 5"), 0,
				[]string{`error: core: result "Bprime": a relation of that name is already catalogued`, intact}, ""},
			{small, taken("retrieve into A (a.all) where a.unique2 < 5"), 0,
				[]string{`error: core: result "A": a relation of that name is already catalogued`, intact}, ""},
			{small, taken(`\load A 100`), 0,
				[]string{`error: \load A: a relation of that name is already catalogued`, intact}, ""},
			// A failing -e statement ends the run after its error; in the
			// shell the next line still runs.
			{with("-e", "range of a is A", "-e", "retrieve (a.all) where a.unique2 < 5 and", "-e", `\relations`), "", 1,
				[]string{"error: quel: "}, ""},
			{small, "range of a is A\nretrieve (a.all) where a.unique2 < 5 and\nretrieve (a.all) where a.unique2 < 5\n", 0,
				[]string{"error: quel: ", "5 tuples in "}, ""},
		}},
		// Every join placement is accepted; an unknown one, or one in the
		// wrong case, is reported in the shell and the next line still runs.
		{"ParseMode", []row{
			{small, strings.Join([]string{`\mode local`, `\mode remote`, `\mode all`, `\mode`, `\mode bogus`,
				`\mode Remote`, `\mode everywhere`, `\relations`}, "\n"), 0,
				[]string{"gamma> gamma> gamma> error: \\mode: usage: \\mode local|remote|all\n" +
					"gamma> error: \\mode bogus: usage: \\mode local|remote|all\n" +
					"gamma> error: \\mode Remote: usage: \\mode local|remote|all\n" +
					"gamma> error: \\mode everywhere: usage: \\mode local|remote|all\n", intact}, ""},
		}},
		// An unknown placement given with -e ends the run before the join.
		{"RejectsUnknownMode", []row{
			{with("-e", "range of a is A", "-e", "range of b is Bprime", "-e", `\mode bogus`,
				"-e", "retrieve into j (a.all) where a.unique2 = b.unique2"), "", 1,
				[]string{"error: \\mode bogus: usage: \\mode local|remote|all"}, ""},
		}},
		// A select and a join export a trace with -out, the join's
		// byte-identical run to run; an unwritable -out exits 1 after the
		// report.
		{"SelectWritesJSONL", []row{
			{[]string{"-disk", "2", "-diskless", "0", "-tuples", "2000", "-out", filepath.Join(dir, "select.jsonl"),
				"-e", "range of a is A", "-e", "retrieve into r (a.all) where a.unique2 < 200"}, "", 0,
				[]string{"200 tuples in ", "wrote "}, ""},
			{with(append(join, "-out", out1)...), "", 0, []string{"phases:\n  join1/build", "join1/probe", "wrote "},
				`\nphases:\n  join1/build +[0-9.]+s  [a-z]+-bound \([a-z]+[0-9]* at [0-9.]+%\)`},
			{with(append(join, "-out", out2)...), "", 0, []string{"wrote "}, ""},
			{with(append(join, "-out", filepath.Join(dir, "missing", "t.jsonl"))...), "", 1,
				[]string{"verdict:", "gammaql: open "}, ""},
		}},
		{"SelectWithFault", []row{
			{[]string{"-disk", "4", "-diskless", "0", "-tuples", "5000", "-fault", "1@0.2",
				"-e", "range of a is A", "-e", "retrieve into r (a.all) where a.unique2 < 500"}, "", 0,
				[]string{"faults:\n      0.200s  node-crash node 3\n", "failover abort"}, ""},
		}},
		// A statement that needs a fragment with no live copy fails, an
		// aggregate or an update as well as a selection.
		{"UnavailableIsAnError", []row{
			{[]string{"-tuples", "2000", "-fault", "2@0", "-fault", "3@0", "-e", "range of a is A",
				"-e", "retrieve (count(a.unique1))"}, "", 1,
				[]string{"error: core: fragment 2 of A unavailable (no live copy)"}, ""},
			{[]string{"-tuples", "2000", "-fault", "2@0", "-e", "range of a is A",
				"-e", "append to A (unique1 = 100003, unique2 = 100003)"}, "", 1,
				[]string{"error: core: fragment 2 of A unavailable (no live copy)"}, ""},
		}},
		{"RejectsBadInput", []row{
			{[]string{"-disk", "0"}, "", 2, []string{"gammaql: -disk 0: need at least one disk processor"}, ""},
			{[]string{"-diskless", "-1"}, "", 2, []string{"gammaql: -diskless -1: must not be negative"}, ""},
			{[]string{"-tuples", "0"}, "", 2, []string{"gammaql: -tuples 0: need at least 10"}, ""},
			{[]string{"-tuples", "5"}, "", 2, []string{"gammaql: -tuples 5: need at least 10"}, ""},
			{[]string{"-pagesize", "0"}, "", 2, []string{"gammaql: -pagesize 0: must be positive"}, ""},
		}},
		// A fault spec that does not parse, or names a site beyond the
		// machine, and a stray argument exit 2 with the usage.
		{"RejectsBadFault", []row{
			{[]string{"-fault", "bogus"}, "", 2, []string{`invalid value "bogus" for flag -fault`}, ""},
			{[]string{"-fault", "nic:1@0.5"}, "", 2, []string{`invalid value "nic:1@0.5" for flag -fault`}, ""},
			{[]string{"-fault", "2@-1"}, "", 2, []string{`invalid value "2@-1" for flag -fault`}, ""},
			{[]string{"-tuples", "2000", "stray"}, "", 2, []string{`gammaql: unexpected argument "stray"`}, ""},
			{with("-disk", "2", "-fault", "2@0.5", "-e", "range of a is A"), "", 2,
				[]string{"gammaql: fault node-crash@2 t=0.500s: the machine has 2 disk sites"}, ""},
		}},
	} {
		t.Run(group.name, func(t *testing.T) {
			for _, tc := range group.rows {
				var stdout, stderr strings.Builder
				code := run(tc.args, strings.NewReader(tc.in), &stdout, &stderr)
				out := stdout.String() + stderr.String()
				if code != tc.code {
					t.Errorf("run(%v) = %d, want %d:\n%s", tc.args, code, tc.code, out)
				}
				if code == 2 && !strings.Contains(stderr.String(), "Usage") {
					t.Errorf("run(%v): no usage on stderr:\n%s", tc.args, stderr.String())
				}
				for _, want := range tc.wants {
					if !strings.Contains(out, want) {
						t.Errorf("run(%v) with %q: want %q in:\n%s", tc.args, tc.in, want, out)
					}
				}
				if tc.match != "" && !regexp.MustCompile(tc.match).MatchString(stdout.String()) {
					t.Errorf("run(%v): stdout does not match %q:\n%s", tc.args, tc.match, stdout.String())
				}
			}
		})
	}
	selected, err := os.ReadFile(filepath.Join(dir, "select.jsonl"))
	if err != nil || len(selected) == 0 {
		t.Errorf("-out: the select wrote %d bytes (%v), want a non-empty trace", len(selected), err)
	}
	trace1, err1 := os.ReadFile(out1)
	trace2, err2 := os.ReadFile(out2)
	if err1 != nil || err2 != nil || len(trace1) == 0 || !bytes.Equal(trace1, trace2) {
		t.Errorf("-out: %d and %d bytes (%v, %v), want two equal non-empty traces", len(trace1), len(trace2), err1, err2)
	}
}

// summary is a query's simulated time, the events its simulation executed,
// and the histogram of its trace's event kinds (fmt prints maps sorted).
func summary(elapsed sim.Dur, executed uint64, col *trace.Collector) string {
	kinds := map[trace.Kind]int{}
	for _, e := range col.Events() {
		kinds[e.Kind]++
	}
	return fmt.Sprintf("%v, %d events, kinds %v", elapsed, executed, kinds)
}

// TestMatchesDirectCalls: the 10% selection and joinABprime in each join
// placement take, through gammaql, the simulated time, the executed events
// and the trace event kinds of the direct core calls that say the same with
// the access path forced to a segment scan.
func TestMatchesDirectCalls(t *testing.T) {
	const nDisk, nDiskless, n = 2, 2, 5000
	direct := func(mode *core.JoinMode) string {
		prm := config.Default()
		m := core.NewMachine(sim.New(), &prm, nDisk, nDiskless)
		col := m.EnableTrace()
		a := m.Load(indexed("A"), wisconsin.Generate(n, 1))
		if mode == nil {
			res := m.RunSelect(core.SelectQuery{Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, n/10-1), Path: core.PathHeap}})
			return summary(res.Elapsed, m.Sim.Executed(), col)
		}
		b := m.Load(core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(n/10, 7))
		res := m.RunJoin(core.JoinQuery{
			Build: core.ScanSpec{Rel: b, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
			Probe: core.ScanSpec{Rel: a, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
			Mode: *mode,
		})
		return summary(res.Elapsed, m.Sim.Executed(), col)
	}
	local, remote, all := core.Local, core.Remote, core.AllNodes
	const join = "retrieve into j (a.all) where a.unique2 = b.unique2"
	for _, tc := range []struct {
		stmt, mode, want string
	}{
		{"retrieve into r (a.all) where a.unique2 < 500", "remote", direct(nil)},
		{join, "local", direct(&local)},
		{join, "remote", direct(&remote)},
		{join, "all", direct(&all)},
	} {
		sh := newShell(config.Default(), nDisk, nDiskless, n, false, io.Discard)
		for _, line := range []string{"range of a is A", "range of b is Bprime", `\mode ` + tc.mode} {
			if _, err := sh.exec(line); err != nil {
				t.Fatal(err)
			}
		}
		out, err := sh.query(tc.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if got := summary(out.Result.Elapsed, sh.m.Sim.Executed(), sh.last); got != tc.want {
			t.Errorf("%s (%s):\ngammaql %s\ndirect  %s", tc.stmt, tc.mode, got, tc.want)
		}
	}
}

// TestREADMEFaultSample runs the README's -fault example as the README writes
// it and requires the verdict and faults lines it shows (its "#   " comment
// lines) to be what gammaql prints.
func TestREADMEFaultSample(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.ReplaceAll(string(readme), "\\\n", ""), "\n")
	var cmd string
	var want []string
	for i, l := range lines {
		if strings.HasPrefix(l, "go run ./cmd/gammaql ") && strings.Contains(l, "-fault 2@0.8") {
			cmd = l
			for _, c := range lines[i+1:] {
				if !strings.HasPrefix(c, "#   ") {
					break
				}
				want = append(want, strings.TrimPrefix(c, "#   "))
			}
			break
		}
	}
	if cmd == "" || len(want) == 0 {
		t.Fatalf("README has no -fault 2@0.8 example followed by its output (found %q, %d lines)", cmd, len(want))
	}
	var stdout, stderr strings.Builder
	args := shellWords(strings.TrimPrefix(cmd, "go run ./cmd/gammaql "))
	if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("run(%q) = %d:\n%s%s", args, code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, w := range want {
		if !strings.Contains(out, "\n"+w+"\n") {
			t.Errorf("README shows %q; gammaql %q printed:\n%s", w, args, out)
		}
	}
}

// shellWords splits a command line on blanks, keeping 'quoted' words whole.
func shellWords(s string) []string {
	var words []string
	for i, part := range strings.Split(s, "'") {
		if i%2 == 1 {
			words = append(words, part)
		} else {
			words = append(words, strings.Fields(part)...)
		}
	}
	return words
}
