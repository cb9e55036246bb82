package bench

// Kernel-equivalence acceptance tests: every experiment must produce
// byte-identical tables, JSON results, and trace streams whichever kernel
// the simulation runs on — the serial oracle or the partitioned kernel at
// any worker count. Windowed experiments derive a positive lookahead from
// the network's delivery-latency floor (Net.MinLatency) and run truly
// parallel conservative windows; the serial oracle is the same partition on
// one worker, so the dual-ord scheme makes the schedules identical and
// these tests pin that identity byte for byte. Serialized experiments
// (fault injection, shared machines, Teradata) still run at lookahead 0,
// where the merged global order is provably the single-heap order. CI runs
// this file under -race across a GOMAXPROCS matrix.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// kernelVariant is one row of the equivalence matrix.
type kernelVariant struct {
	name    string
	kernel  string
	workers int
	fusion  sim.Fusion // what tracedWorkloadOn hands SetFusion; Options always runs adaptive
}

// kernelVariants is the equivalence matrix: the serial oracle, the
// partitioned kernel serialized and with a worker budget (the three a user
// can select, under the adaptive policy Options always installs), and the
// worker budget at the policy's two extremes — never fused, and starting
// fully fused — which only the trace tests can reach, by handing the kernel
// the policy directly.
var kernelVariants = []kernelVariant{
	{"serial", "serial", 0, sim.Fusion{}},
	{"partitioned-w1", "partitioned", 1, sim.Fusion{}},
	{"partitioned-w4", "partitioned", 4, sim.Fusion{}},
	{"partitioned-w4-unfused", "partitioned", 4, sim.Fusion{Off: true}},
	{"partitioned-w4-fused", "partitioned", 4, sim.Fusion{InitLevel: -1}},
}

// suiteArtifacts runs a cross-section of experiments on the given kernel
// and returns the rendered tables and the JSON result document (the stable
// parts of the gammabench -json report: wall-clock fields excluded), plus
// the number of window rounds the suite's simulations ran.
func suiteArtifacts(t *testing.T, kernel string, workers int) (tables, jsonDoc []byte, windows int64) {
	t.Helper()
	// Windowed experiments (table1, fig1, fig9, scaleup, netgen — fig9
	// exercises joins inside parallel windows, netgen the batched exchange
	// of the fast-network generations) plus serialized ones (degraded,
	// multiuser).
	ids := []string{"table1", "fig1", "fig9", "scaleup", "netgen", "degraded", "multiuser"}
	var exps []Experiment
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	o := tinyOptions()
	o.Kernel = kernel
	o.KernelWorkers = workers
	reports := RunSuite(exps, o, 2)
	var tblBuf bytes.Buffer
	type stable struct {
		ID     string
		Events int64
		Table  *Table
	}
	var doc []stable
	for _, r := range reports {
		r.Table.Render(&tblBuf)
		doc = append(doc, stable{ID: r.ID, Events: r.Events, Table: r.Table})
		windows += r.Windows.Windows
	}
	js, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return tblBuf.Bytes(), js, windows
}

// TestKernelEquivalenceSuite: the quick-suite cross-section produces
// byte-identical tables and JSON results on every kernel a user can select —
// and the pair does select: only a partitioned run with a worker budget
// executes windows, so identical bytes are not two runs of one path.
func TestKernelEquivalenceSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite cross-section is seconds-long; skipped in -short")
	}
	refTables, refJSON, refWindows := suiteArtifacts(t, "serial", 0)
	if refWindows != 0 {
		t.Errorf("serial kernel ran %d window rounds, want 0", refWindows)
	}
	for _, v := range kernelVariants[1:3] {
		tables, js, windows := suiteArtifacts(t, v.kernel, v.workers)
		if (windows > 0) != (v.workers > 1) {
			t.Errorf("%s: %d window rounds, want windows only with a worker budget", v.name, windows)
		}
		if !bytes.Equal(tables, refTables) {
			t.Errorf("%s: rendered tables differ from serial kernel (%d vs %d bytes)",
				v.name, len(tables), len(refTables))
		}
		if !bytes.Equal(js, refJSON) {
			t.Errorf("%s: JSON results differ from serial kernel (%d vs %d bytes)",
				v.name, len(js), len(refJSON))
		}
	}
}

// TestKernelEquivalenceAcrossLookahead: the registry's windowed column is a
// hint to the host kernel and selects no model. A cross-section of windowed
// experiments — selections with a Teradata reference, joins, the fast
// generations' batched exchange, overflow rounds — prints the same bytes
// with the hint on (shards at lookahead Net.MinLatency, per-shard event
// keys) and off (one heap, one global key counter): every operator start
// crosses the ring on both.
func TestKernelEquivalenceAcrossLookahead(t *testing.T) {
	o := tinyOptions()
	for _, row := range registry {
		switch row.id {
		case "table1", "fig9", "netgen", "hybrid":
			on, off := renderTable(row.run(o.windowed())), renderTable(row.run(o.serialized()))
			if !bytes.Equal(on, off) {
				t.Errorf("%s: windowed and serialized machines print different tables:\n--- windowed ---\n%s--- serialized ---\n%s", row.id, on, off)
			}
		}
	}
}

// tracedWorkloadOn builds a small traced Gamma machine with the given
// hardware parameters on kernel variant v at lookahead la, runs a heap
// selection and an indexed selection, and returns the full trace stream
// bytes. The optional hook runs after the machine is built (floor-tightness
// tests use it to over-declare a shard's output or channel floor).
func tracedWorkloadOn(t *testing.T, prm config.Params, v kernelVariant, la sim.Dur, tweak func(m *core.Machine)) []byte {
	t.Helper()
	s := sim.New()
	switch v.kernel {
	case "serial":
		if la > 0 {
			// The serial oracle for a windowed run: same partition, same
			// ord keys, one worker.
			s.Partition(la)
			s.SetWorkers(1)
		}
	case "partitioned":
		s.Partition(la)
		s.SetWorkers(v.workers)
		s.SetFusion(v.fusion)
	default:
		t.Fatalf("unknown kernel %q", v.kernel)
	}
	m := core.NewMachine(s, &prm, 4, 4)
	u1 := rel.Unique1
	r := m.Load(core.LoadSpec{
		Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(5000, 1))
	if tweak != nil {
		tweak(m)
	}
	col := m.EnableTrace()
	m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 499), Path: core.PathHeap},
	})
	m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique1, 100, 199), Path: core.PathClustered},
	})
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("traced workload emitted no events")
	}
	return buf.Bytes()
}

// TestKernelEquivalenceTraces: the full structured event stream of a traced
// Gamma workload is byte-identical on every kernel variant — the headline
// invariant of the partitioned kernel — serialized (lookahead 0), inside
// windows at the latency-floor lookahead every windowed experiment runs at,
// and at a lookahead far below the floor (100 µs), where the same schedule
// is cut into many more, smaller windows.
func TestKernelEquivalenceTraces(t *testing.T) {
	prm := config.Default()
	floor := prm.Net.MinLatency
	if floor <= 100 {
		t.Fatalf("default latency floor %v leaves no room for a sub-floor lookahead", floor)
	}
	for _, la := range []sim.Dur{0, 100, floor} {
		ref := tracedWorkloadOn(t, prm, kernelVariants[0], la, nil)
		for _, v := range kernelVariants[1:] {
			got := tracedWorkloadOn(t, prm, v, la, nil)
			if !bytes.Equal(got, ref) {
				t.Errorf("%s at lookahead %v: trace stream differs from serial kernel (%d vs %d bytes)",
					v.name, la, len(got), len(ref))
			}
		}
	}
}

// TestLookaheadFloorIsTight: Net.MinLatency is the largest safe lookahead,
// globally and per channel. Running the Gamma model one microsecond above
// the floor must trip the kernel's send-site violation panic — some remote
// delivery really does arrive exactly MinLatency after it was sent — while
// the floor itself runs clean (pinned by every windowed test in this file).
// The output-floor and channel-floor cases prove the same tightness for the
// per-shard declarations: over-declaring the host's output floor, or its
// channel floor toward the scheduler alone, trips the same panic at a
// modest global lookahead. This guards the whole delivery path: a new
// remote interaction that forgets the floor turns into a crash here, not a
// silent misordering.
func TestLookaheadFloorIsTight(t *testing.T) {
	floor := config.Default().Net.MinLatency
	cases := []struct {
		name  string
		la    sim.Dur
		tweak func(m *core.Machine)
	}{
		{"global-lookahead", floor + 1, nil},
		{"output-floor", 100, func(m *core.Machine) {
			m.Host.Part.SetOutFloor(floor + 1)
		}},
		{"channel-floor", 100, func(m *core.Machine) {
			m.Host.Part.SetChannelFloor(m.Sched.Part, floor+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic running above the latency floor")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "violates lookahead") {
					t.Fatalf("wrong panic: %v", r)
				}
			}()
			tracedWorkloadOn(t, config.Default(), kernelVariants[1], tc.la, tc.tweak)
		})
	}
}

// TestKernelEquivalenceGenerations: trace byte-identity holds at every
// hardware generation's own latency floor. The fast generations are the
// hard case the EOT scheduler exists for — rdma's 2µs floor grants almost
// no static window, so nearly every parallel window there comes from
// earliest-output-time bounds and the nose's declared output floors.
func TestKernelEquivalenceGenerations(t *testing.T) {
	if testing.Short() {
		t.Skip("generation matrix is seconds-long; skipped in -short")
	}
	for _, gen := range config.Generations() {
		prm := gen.Params()
		la := prm.Net.MinLatency
		ref := tracedWorkloadOn(t, prm, kernelVariants[0], la, nil)
		for _, v := range kernelVariants[1:] {
			got := tracedWorkloadOn(t, prm, v, la, nil)
			if !bytes.Equal(got, ref) {
				t.Errorf("%s on %s: trace stream differs from serial kernel (%d vs %d bytes)",
					v.name, gen.Name, len(got), len(ref))
			}
		}
	}
}
