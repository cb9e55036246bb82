package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gamma/internal/bench"
)

func devNull(t *testing.T) *os.File {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { null.Close() })
	return null
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	null := devNull(t)
	if code := run([]string{"-bogus", "table1"}, null, null); code != 2 {
		t.Errorf("unknown flag: exit code %d, want 2", code)
	}
}

// TestPositionalExperiments: the ids named after the flags run, in the order
// given. (TestRunRejectsUnknownExperiment covers the unknown ones.)
func TestPositionalExperiments(t *testing.T) {
	null := devNull(t)
	var out bytes.Buffer
	if code := run([]string{"-quick", "-json", "-parallel", "1", "table3", "bitvector"}, &out, null); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if len(rep.Experiments) != 2 || rep.Experiments[0].ID != "table3" || rep.Experiments[1].ID != "bitvector" {
		t.Errorf("experiments = %+v, want table3 then bitvector", rep.Experiments)
	}
}

// TestJSONRowsMatchTable: -json carries the experiment's table cell for cell
// — label, measured, paper and extra — exactly as the experiment returns it.
func TestJSONRowsMatchTable(t *testing.T) {
	null := devNull(t)
	var out bytes.Buffer
	if code := run([]string{"-quick", "-json", "-parallel", "1", "table3"}, &out, null); code != 0 {
		t.Fatalf("table3 run: exit code %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("got %d experiments, want 1", len(rep.Experiments))
	}
	e, _ := bench.Lookup("table3")
	want := e.Run(bench.Quick()).Rows
	if got := rep.Experiments[0].Rows; !reflect.DeepEqual(got, want) {
		t.Errorf("-json rows differ from the table:\n got %+v\nwant %+v", got, want)
	}
}

// TestJSONSetupQuerySplitAndCacheCounters: the -json report carries the
// setup/query wall split (old field names intact) and the relation-image
// cache counters, per experiment and as suite totals.
func TestJSONSetupQuerySplitAndCacheCounters(t *testing.T) {
	null := devNull(t)
	var out bytes.Buffer
	// bitvector runs two machines holding the same relations: every one is
	// built for the first and attached from the cache for the second.
	if code := run([]string{"-quick", "-json", "-parallel", "1", "bitvector"}, &out, null); code != 0 {
		t.Fatalf("bitvector run: exit code %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("got %d experiments, want 1", len(rep.Experiments))
	}
	e := rep.Experiments[0]
	if e.WallSeconds <= 0 || e.SetupWallSeconds <= 0 || e.QueryWallSeconds <= 0 {
		t.Errorf("wall split: wall=%v setup=%v query=%v, want all > 0",
			e.WallSeconds, e.SetupWallSeconds, e.QueryWallSeconds)
	}
	if got := e.SetupWallSeconds + e.QueryWallSeconds; got > e.WallSeconds*1.001 {
		t.Errorf("serial run: setup+query = %v exceeds wall %v", got, e.WallSeconds)
	}
	if e.ImageCacheHits < 1 || e.ImageCacheMisses < 1 {
		t.Errorf("image cache counters: hits=%d misses=%d, want both >= 1",
			e.ImageCacheHits, e.ImageCacheMisses)
	}
	if rep.ImageCacheHits != e.ImageCacheHits || rep.ImageCacheMisses != e.ImageCacheMisses {
		t.Errorf("suite totals (%d/%d) != experiment counters (%d/%d)",
			rep.ImageCacheHits, rep.ImageCacheMisses, e.ImageCacheHits, e.ImageCacheMisses)
	}
	if rep.SetupWallSeconds != e.SetupWallSeconds {
		t.Errorf("suite setup_wall_seconds %v != the one experiment's %v", rep.SetupWallSeconds, e.SetupWallSeconds)
	}
	// Raw field names are part of the tooling contract.
	for _, field := range []string{`"wall_seconds"`, `"setup_wall_seconds"`, `"query_wall_seconds"`,
		`"image_cache_hits"`, `"image_cache_misses"`, `"simulated_events"`, `"rows"`} {
		if !bytes.Contains(out.Bytes(), []byte(field)) {
			t.Errorf("-json output missing field %s", field)
		}
	}
	for _, gone := range []string{`"kernel`, `"generation"`} {
		if bytes.Contains(out.Bytes(), []byte(gone)) {
			t.Errorf("-json output still carries a %s field:\n%s", gone, out.String())
		}
	}
}

// TestRetiredExperiment: each retired id still runs, printing the one-row
// table that says why it was retired, and -list leaves it out.
func TestRetiredExperiment(t *testing.T) {
	null := devNull(t)
	var list bytes.Buffer
	if code := run([]string{"-list"}, &list, null); code != 0 {
		t.Fatalf("-list: exit code %d, want 0", code)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(list.String()), "\n") {
		listed[strings.Fields(line)[0]] = true
	}
	for _, id := range []string{"kernelscale", "degraded", "scaleup", "netgen"} {
		var out bytes.Buffer
		if code := run([]string{"-quick", id}, &out, null); code != 0 {
			t.Fatalf("%s: exit code %d, want 0", id, code)
		}
		if !strings.Contains(out.String(), "== "+id+": retired: ") || strings.Count(out.String(), "\nretired ") != 1 {
			t.Errorf("%s printed no one-row tombstone:\n%s", id, out.String())
		}
		if listed[id] {
			t.Errorf("-list shows the retired %s:\n%s", id, list.String())
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	null := devNull(t)
	if code := run([]string{"-quick", "table9"}, null, null); code != 2 {
		t.Errorf("unknown experiment: exit code %d, want 2", code)
	}
	// The check must fire before any experiment runs, even when a valid id
	// precedes the bad one.
	if code := run([]string{"-quick", "table1", "table9"}, null, null); code != 2 {
		t.Errorf("valid+unknown experiments: exit code %d, want 2", code)
	}
}

func TestRunRejectsBadParallel(t *testing.T) {
	null := devNull(t)
	for _, v := range []string{"0", "-3", "two"} {
		if code := run([]string{"-parallel", v, "table1"}, null, null); code != 2 {
			t.Errorf("-parallel %s: exit code %d, want 2", v, code)
		}
	}
}

// TestRunRejectsBadFlagValues: every row of run's validation table, plus
// the values the flag package rejects itself — among them the retired kernel
// and hardware-generation flags — exits 2 with a named error and the usage
// before anything simulates.
func TestRunRejectsBadFlagValues(t *testing.T) {
	null := devNull(t)
	for _, tc := range []struct {
		args []string
		want string // substring of the error naming what was wrong
	}{
		{[]string{"-parallel", "0"}, "-parallel must be >= 1"},
		{[]string{"-campaign-faults", "-1"}, "flag provided but not defined: -campaign-faults"},
		{[]string{"table9"}, `unknown experiment "table9"`},
		{[]string{"-list", "-parallel", "0"}, "-parallel must be >= 1"}, // validation precedes -list
		{[]string{"-kernel", "partitioned"}, "flag provided but not defined: -kernel"},
		{[]string{"-kernel-workers", "4"}, "flag provided but not defined: -kernel-workers"},
		{[]string{"-lookahead", "100"}, "flag provided but not defined"},
		{[]string{"-fusion", "off"}, "flag provided but not defined"},
		{[]string{"-experiment", "table3"}, "flag provided but not defined"},
		{[]string{"-generation", "rdma"}, "flag provided but not defined: -generation"},
		{[]string{"-list-generations"}, "flag provided but not defined: -list-generations"},
	} {
		var errBuf bytes.Buffer
		args := append([]string{"-quick"}, tc.args...)
		if code := run(append(args, "table3"), null, &errBuf); code != 2 {
			t.Errorf("%v: exit code %d, want 2", tc.args, code)
		}
		for _, want := range []string{tc.want, "Usage of gammabench"} {
			if !strings.Contains(errBuf.String(), want) {
				t.Errorf("%v: stderr does not mention %q:\n%s", tc.args, want, errBuf.String())
			}
		}
	}
}

// TestEnvironmentIsIgnored: gammabench reads no environment variable. The
// five it used to read, set to values that used to select another kernel,
// change the model or abort the run, leave the exit code and every rendered
// byte where a clean environment puts them.
func TestEnvironmentIsIgnored(t *testing.T) {
	null := devNull(t)
	args := []string{"-quick", "-parallel", "1", "table3", "bitvector"}
	hostile := map[string]string{"GAMMA_KERNEL": "bogus", "GAMMA_KERNEL_WORKERS": "-7",
		"GAMMA_LOOKAHEAD": "0", "GAMMA_FUSION": "off", "GAMMA_GENERATION": "bogus"}
	for name := range hostile {
		t.Setenv(name, "") // registers the restore; the run below sees it unset
		os.Unsetenv(name)
	}
	var clean, dirty bytes.Buffer
	if code := run(args, &clean, null); code != 0 {
		t.Fatalf("clean environment: exit code %d", code)
	}
	for name, value := range hostile {
		t.Setenv(name, value)
	}
	if code := run(args, &dirty, null); code != 0 {
		t.Fatalf("GAMMA_* set: exit code %d, want 0", code)
	}
	if clean.Len() == 0 || !bytes.Equal(clean.Bytes(), dirty.Bytes()) {
		t.Errorf("tables depend on the environment (%d bytes clean, %d with GAMMA_* set)", clean.Len(), dirty.Len())
	}
}

func TestRunRejectsUnwritableProfilePaths(t *testing.T) {
	null := devNull(t)
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.prof")
	// Both failures happen before (cpu) or after (mem) the suite; keep the
	// run cheap with a bad cpu path so nothing simulates.
	if code := run([]string{"-quick", "-cpuprofile", bad, "table3"}, null, null); code != 1 {
		t.Errorf("-cpuprofile to missing dir: exit code %d, want 1", code)
	}
}

func TestRunList(t *testing.T) {
	null := devNull(t)
	if code := run([]string{"-list"}, null, null); code != 0 {
		t.Errorf("-list: exit code %d, want 0", code)
	}
}

// TestRunSerialParallelIdentical asserts the rendered tables are
// byte-identical whether the suite runs on one worker or eight: every data
// point is an independent deterministic simulation, and wall-clock chatter
// goes to stderr.
func TestRunSerialParallelIdentical(t *testing.T) {
	null := devNull(t)
	var serial, parallel bytes.Buffer
	if code := run([]string{"-quick", "-parallel", "1", "table3", "bitvector"}, &serial, null); code != 0 {
		t.Fatalf("-parallel 1: exit code %d", code)
	}
	if code := run([]string{"-quick", "-parallel", "8", "table3", "bitvector"}, &parallel, null); code != 0 {
		t.Fatalf("-parallel 8: exit code %d", code)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("serial and parallel stdout differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	if serial.Len() == 0 {
		t.Error("no table output")
	}
}

// TestRunProfilesWritten checks the pprof flags produce non-empty files.
func TestRunProfilesWritten(t *testing.T) {
	null := devNull(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if code := run([]string{"-quick", "-cpuprofile", cpu, "-memprofile", mem, "table3"}, null, null); code != 0 {
		t.Fatalf("profiled run: exit code %d", code)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
