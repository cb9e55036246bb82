package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gamma/internal/core"
)

func TestParseMode(t *testing.T) {
	tests := []struct {
		in      string
		want    core.JoinMode
		wantErr bool
	}{
		{in: "local", want: core.Local},
		{in: "remote", want: core.Remote},
		{in: "all", want: core.AllNodes},
		{in: "allnodes", want: core.AllNodes},
		{in: "", wantErr: true},
		{in: "Remote", wantErr: true},
		{in: "everywhere", wantErr: true},
		// The old lookup-table bug: an unknown mode silently became the
		// zero JoinMode (Remote). It must be rejected instead.
		{in: "bogus", wantErr: true},
	}
	for _, tc := range tests {
		got, err := parseMode(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseMode(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseMode(%q): unexpected error %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestRunRejectsUnknownMode(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if code := run([]string{"-query", "join", "-mode", "bogus"}, null, null); code != 2 {
		t.Errorf("run with -mode bogus: exit code %d, want 2", code)
	}
	if code := run([]string{"-query", "nope"}, null, null); code != 2 {
		t.Errorf("run with -query nope: exit code %d, want 2", code)
	}
}

func TestRunSelectWritesJSONL(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	if code := run([]string{"-disk", "2", "-diskless", "0", "-tuples", "2000", "-out", out}, null, null); code != 0 {
		t.Fatalf("run: exit code %d, want 0", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("JSONL export is empty")
	}
}

func TestRunRejectsBadFault(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, args := range [][]string{
		{"-fault", "bogus"},
		{"-fault", "nic:1@0.5"}, // nic outage needs a +dur
		{"-fault", "2@-1"},
		{"-tuples", "2000", "stray-arg"},
	} {
		if code := run(args, null, null); code != 2 {
			t.Errorf("run(%v): exit code %d, want 2", args, code)
		}
	}
}

func TestRunSelectWithFault(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	args := []string{"-disk", "4", "-diskless", "0", "-tuples", "5000", "-fault", "1@0.2"}
	if code := run(args, null, null); code != 0 {
		t.Fatalf("run(%v): exit code %d, want 0", args, code)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-disk", "0"}, "-disk 0: need at least one disk processor"},
		{[]string{"-diskless", "-1"}, "-diskless -1: must not be negative"},
		{[]string{"-tuples", "0"}, "-tuples 0: a select needs at least 1"},
		{[]string{"-query", "join", "-tuples", "5"}, "-tuples 5: a join needs at least 10"},
		{[]string{"-pagesize", "0"}, "-pagesize 0: must be positive"},
		{[]string{"-sel", "-1"}, "-sel -1: must be a percentage in [0, 100]"},
		{[]string{"-sel", "101"}, "-sel 101: must be a percentage in [0, 100]"},
		{[]string{"-query", "nope"}, `unknown query "nope"`},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v): exit code %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), "gammatrace: "+tc.want) || !strings.Contains(stderr.String(), "Usage") {
			t.Errorf("run(%v): stderr lacks %q and the usage:\n%s", tc.args, tc.want, stderr.String())
		}
	}
}
