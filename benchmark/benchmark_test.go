package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"gamma/internal/bench"
)

// TestMain lets the test binary stand in for the harness binary: the parent
// re-execs os.Executable() with -child, which here is this test binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

func TestStat(t *testing.T) {
	for _, c := range []struct {
		in            []float64
		med, min, max float64
	}{
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1, 4},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		st := newStat(c.in, "s")
		if st.Median != c.med || st.Min != c.min || st.Max != c.max || st.N != len(c.in) {
			t.Errorf("newStat(%v) = %+v, want median %v min %v max %v", c.in, st, c.med, c.min, c.max)
		}
	}
}

func TestPaperErrGmean(t *testing.T) {
	tbl := &bench.Table{Rows: []bench.Row{
		{Label: "a", Cells: []bench.Cell{{Measured: 2, Paper: 1}, {Measured: 5}}}, // 2x over; unpublished
		{Label: "b", Cells: []bench.Cell{{Measured: 1, Paper: 2}, {Measured: 3, Paper: 3}}},
	}}
	var p paperError
	p.add(tbl)
	// |ln 2|, |ln 1/2|, |ln 1| over three published cells.
	want := math.Exp(2*math.Ln2/3) - 1
	if p.cells != 3 || math.Abs(p.gmean()-want) > 1e-12 {
		t.Errorf("gmean = %v over %d cells, want %v over 3", p.gmean(), p.cells, want)
	}
	if (paperError{}).gmean() != 0 {
		t.Error("no published cells must give 0")
	}
	tbl.Rows[0].Cells[1].Measured = math.NaN()
	if badCell(tbl) == "" {
		t.Error("NaN cell not reported")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "harness", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "bench", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Layer: "bench", StartNS: 40, EndNS: 90},  // overlaps span 2: suite workers
		{ID: 4, Parent: 2, Layer: "setup", StartNS: 10, EndNS: 200}, // cumulative, longer than its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 0, 3: 50, 4: 190} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := layerSelfSeconds(spans)["bench"]; got != 50e-9 {
		t.Errorf("bench layer self = %v s, want 50 ns", got)
	}
}

// stackFixtures are leaf-first stacks as the quick suite's profile records
// them, with the rule (index into bucketRules, -1 for "other") each must hit.
var stackFixtures = []struct {
	rule   int
	bucket string
	stack  []string
}{
	// A memmove under Load is set-up, not data movement: first match wins.
	{0, "setup", []string{"runtime.memmove", "gamma/internal/wiss.(*File).LoadDirect", "gamma/internal/core.(*Machine).Load", "gamma/internal/bench.loadSpecRel"}},
	{1, "alloc_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
	{2, "datamove", []string{"runtime.memmove", "gamma/internal/core.(*splitTable).flush"}},
	// memclr under mallocgc is counted where the ISSUE puts it: the leaf rule comes first.
	{2, "datamove", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "gamma/internal/nose.(*Conn).deliverAt"}},
	{3, "alloc_gc", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "gamma/internal/nose.(*Conn).deliverAt"}},
	{5, "handoff", []string{"runtime.chanrecv", "runtime.chanrecv1", "gamma/internal/sim.(*Proc).park", "gamma/internal/sim.(*Proc).Sleep", "gamma/internal/core.selectPage"}},
	{4, "handoff", []string{"runtime.casgstatus", "runtime.park_m", "runtime.mcall"}},
	{6, "handoff", []string{"runtime.chansend", "runtime.chansend1", "gamma/internal/sim.(*Sim).fireSerial", "gamma/internal/sim.(*Sim).runSerial"}},
	{7, "windows", []string{"runtime.chansend", "gamma/internal/sim.(*Sim).runWindows", "gamma/internal/sim.(*Sim).Run"}},
	{7, "windows", []string{"gamma/internal/sim.(*Sim).runGroupMerged", "gamma/internal/sim.(*Sim).runGroup"}},
	{8, "calendar", []string{"gamma/internal/sim.(*eventHeap).siftDown", "gamma/internal/sim.(*eventHeap).pop", "gamma/internal/sim.(*Sim).runSerial"}},
	{8, "calendar", []string{"gamma/internal/sim.(*Sim).fireSerial", "gamma/internal/sim.(*Sim).runSerial"}},
	{9, "trace", []string{"gamma/internal/trace.(*Collector).Emit", "gamma/internal/sim.(*Sim).emitOn"}},
	{10, "model_core", []string{"aeshashbody", "runtime.mapaccess2_fast32", "gamma/internal/core.(*joinTable).probe"}},
	{11, "model_wiss", []string{"gamma/internal/wiss.(*BufferPool).Get", "gamma/internal/wiss.(*File).ReadPageAsync"}},
	{12, "model_nose", []string{"gamma/internal/nose.(*Port).Recv", "gamma/internal/core.recvStream"}},
	{-1, "other", []string{"container/heap.down", "container/heap.Pop"}},
}

func TestBucketRules(t *testing.T) {
	hit := make([]bool, len(bucketRules))
	for _, f := range stackFixtures {
		got := matchRule(f.stack)
		if got != f.rule || bucketOf(f.stack) != f.bucket {
			t.Errorf("stack %v: rule %d bucket %s, want rule %d bucket %s", f.stack, got, bucketOf(f.stack), f.rule, f.bucket)
		}
		if got >= 0 {
			hit[got] = true
		}
	}
	for i, ok := range hit {
		if !ok {
			t.Errorf("rule %d (%s, %s) is reached by no fixture", i, bucketRules[i].Bucket, bucketRules[i].Where)
		}
	}
	buckets := map[string]bool{"other": true}
	for _, b := range hostShareBuckets {
		buckets[b] = true
	}
	for _, r := range bucketRules {
		if !buckets[r.Bucket] {
			t.Errorf("rule bucket %q has no host.share metric", r.Bucket)
		}
	}
	shares := hostShares([]stackSample{{stackFixtures[0].stack, 3}, {stackFixtures[2].stack, 1}})
	if shares["setup"] != 0.75 || shares["datamove"] != 0.25 {
		t.Errorf("shares = %v, want setup 0.75 datamove 0.25", shares)
	}
}

// TestReadProfile decodes a profile runtime/pprof really wrote.
func TestReadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		x += math.Sqrt(float64(time.Now().UnixNano()))
	}
	pprof.StopCPUProfile()
	samples, err := readProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.Stack {
			found = found || strings.Contains(fn, "TestReadProfile")
		}
	}
	if !found {
		t.Errorf("no sample names this test among %d samples (x=%v)", len(samples), x)
	}
	if _, err := decodeProfile([]byte{0x12, 0x7f}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestNamesMatchBenchmarkJSON keeps the names the code emits equal to the
// names BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var gated []workload
	for _, w := range workloads {
		checkName(w.Name)
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(decl.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code gates %d", len(decl.Workloads), len(gated))
	}
	for i, w := range gated {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, d.Name, d.Why, w.Name, w.Why)
		}
	}
	same := func(kind string, decl []metric, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the code %d", len(decl), kind, len(defs))
		}
		for i, m := range defs {
			checkName(m.Name)
			d := decl[i]
			if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, d, m)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the code's %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end-to-end", decl.EndToEnd, endToEnd, true)
	same("per-layer", decl.PerLayer, perLayer, false)
	if seen[failShare] {
		t.Errorf("%s travels as failed/attempted, not as a declared metric", failShare)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", decl.Paths)
	}
	for _, w := range workloads {
		for _, id := range w.IDs {
			if _, ok := bench.Lookup(id); !ok {
				t.Errorf("workload %s pins unregistered experiment %q", w.Name, id)
			}
			if groupOf[id] == "" {
				t.Errorf("experiment %q has no group", id)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	st := func(med, lo, hi float64) metricStat { return metricStat{Median: med, Min: lo, Max: hi, N: 3} }
	for _, c := range []struct {
		m         metricDef
		base, cur metricStat
		want      string
	}{
		{lower, st(10, 9.9, 10.1), st(10.2, 10.1, 10.3), "same"},
		{lower, st(10, 9.9, 10.1), st(11.5, 11.4, 11.6), "worse"},
		{lower, st(10, 9.9, 10.1), st(8, 7.9, 8.1), "better"},
		{higher, st(10, 9.9, 10.1), st(8, 7.9, 8.1), "worse"},
		{higher, st(10, 9.9, 10.1), st(12, 11.9, 12.1), "better"},
		{lower, st(10, 8, 12), st(10.5, 8.5, 12.5), "unresolved"}, // ranges overlap by 35 % of the median
	} {
		if _, got := verdict(c.m, c.base, c.cur); got != c.want {
			t.Errorf("verdict(%s, %+v, %+v) = %s, want %s", c.m.Better, c.base, c.cur, got, c.want)
		}
	}
}

func TestCompareRefusesMismatch(t *testing.T) {
	wr := func(name string) workloadResult {
		return workloadResult{Name: name, Attempted: 1, EndToEnd: map[string]metricStat{}}
	}
	a := ledger{P: 2, Workloads: []workloadResult{wr("quick_1core")}}
	var out, errb bytes.Buffer
	if code := compareLedgers(a, ledger{P: 4, Workloads: a.Workloads}, &out, &errb); code != 2 {
		t.Errorf("different P: exit %d, want 2", code)
	}
	if code := compareLedgers(a, ledger{P: 2, Workloads: []workloadResult{wr("quick_multicore")}}, &out, &errb); code != 2 {
		t.Errorf("different workloads: exit %d, want 2", code)
	}
	b := ledger{P: 2, Workloads: []workloadResult{wr("quick_1core")}}
	b.Workloads[0].Failed = 1
	if code := compareLedgers(a, b, &out, &errb); code != 1 {
		t.Errorf("higher fail_share: exit %d, want 1\n%s", code, out.String())
	}
	if code := compareLedgers(a, a, &out, &errb); code != 0 {
		t.Errorf("identical results: exit %d, want 0", code)
	}
}

func TestProbePlumbing(t *testing.T) {
	p := &probes{rec: newRecorder(), res: probesResult{Metrics: map[string]float64{}}}
	p.probe("sim.resource_use_ns", p.simResource)
	p.probe("boom", func() { panic("layer bug") })
	if p.res.Attempted != 2 || p.res.Failed != 1 || !strings.Contains(p.res.Failures[0], "layer bug") {
		t.Errorf("attempted %d failed %d failures %v", p.res.Attempted, p.res.Failed, p.res.Failures)
	}
	if p.res.Metrics["sim.resource_use_ns"] <= 0 {
		t.Error("probe set no metric")
	}
	// probe.<metric> -> the layer call, both closed.
	spans := p.rec.spans
	if len(spans) != 3 || spans[1].Parent != spans[0].ID || spans[1].Layer != "sim" || spans[1].EndNS < spans[1].StartNS {
		t.Errorf("spans = %+v", spans)
	}
}

// TestSmoke is the -smoke end-to-end run, child process included.
func TestSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-smoke"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rl resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if !rl.Correct || rl.Attempted != len(smokeWorkload.IDs) || rl.Failed != 0 || len(rl.Metrics) != len(endToEnd) {
		t.Errorf("result line = %+v", rl)
	}
	for _, m := range endToEnd {
		if v := rl.Metrics[m.Name]; v.Unit != m.Unit || (v.Value <= 0 && m.Name != "paper_err_gmean") {
			t.Errorf("metric %s = %+v", m.Name, v)
		}
		if !strings.Contains(out.String(), "smoke "+m.Name+" ") {
			t.Errorf("metric %s not printed by name", m.Name)
		}
	}
}

// TestTracedSmoke runs the traced path without the layer probes (they take
// 5 s): reference, traced and other-kernel repetitions in child processes.
func TestTracedSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{exe: exe, seed: 1, log: os.Stderr}
	wr := workloadResult{Name: smokeWorkload.Name, Digests: map[string]string{}}
	sets := r.traced(smokeWorkload, &wr)
	if wr.Failed != 0 || wr.Attempted != 3*len(smokeWorkload.IDs) {
		t.Fatalf("attempted %d failed %d: %v", wr.Attempted, wr.Failed, wr.Failures)
	}
	if len(wr.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(wr.PerLayer), len(perLayer))
	}
	sum := 0.0
	for _, b := range hostShareBuckets {
		sum += wr.PerLayer["host.share."+b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("host shares sum to %v", sum)
	}
	if wr.PerLayer["sim.windows_vs_serial"] <= 0 || wr.PerLayer["bench.trace_overhead"] <= 0 || wr.PerLayer["sim.events"] <= 0 {
		t.Errorf("per-layer = %v", wr.PerLayer)
	}
	// workload -> bench.RunSuite -> bench.experiment.<id> -> bench.setup
	if len(sets) != 1 {
		t.Fatalf("%d span sets", len(sets))
	}
	byID := map[int]span{}
	for _, s := range sets[0].Spans {
		byID[s.ID] = s
	}
	setups := 0
	for _, s := range sets[0].Spans {
		if s.Name != "bench.setup" {
			continue
		}
		setups++
		exp := byID[s.Parent]
		if !strings.HasPrefix(exp.Name, "bench.experiment.") || byID[exp.Parent].Name != "bench.RunSuite" ||
			byID[byID[exp.Parent].Parent].Name != "workload.smoke" {
			t.Errorf("bench.setup nests under %q", exp.Name)
		}
	}
	if setups != len(smokeWorkload.IDs) {
		t.Errorf("%d bench.setup spans, want %d", setups, len(smokeWorkload.IDs))
	}
	path := t.TempDir() + "/spans.jsonl.gz"
	if err := writeSpans(path, sets); err != nil {
		t.Fatal(err)
	}
}
