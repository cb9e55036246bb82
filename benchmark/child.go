package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"gamma/internal/bench"
	"gamma/internal/sim"
)

// childSpec is what the parent asks one child process to do. It travels as
// JSON in the -child flag; the child's answer is one JSON object on stdout.
type childSpec struct {
	Mode     string // "suite" or "probes"
	Workload string
	Seed     uint64
	// Kernel overrides the workload's kernel ("" keeps it): the traced run
	// repeats the workload on the other kernel to compare walls and tables.
	Kernel    string
	Trace     bool // record spans and, in a suite child, a CPU profile
	Multicore bool // probes: run the *_mc set (the child is at GOMAXPROCS=P)
}

// expResult is one experiment of one repetition.
type expResult struct {
	ID     string  `json:"id"`
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	Events int64   `json:"events"`
	// Digest is the sha256 of the table as Table.Render writes it.
	// Table.Metrics is left out: kernelscale keeps host wall times there.
	Digest      string `json:"digest"`
	ImageHits   int64  `json:"image_hits"`
	ImageMisses int64  `json:"image_misses"`
	// Failed says why the experiment counts as a failed operation: a panic
	// that escaped it, or a cell that is NaN, infinite or negative.
	Failed string `json:"failed,omitempty"`
}

// repResult is what a suite child measured, all clocks stated: WallS, SetupS
// and the runtime counters are host quantities; Events, the digests,
// PaperErrGmean, SimSeconds and the window counters are simulated and repeat
// exactly.
type repResult struct {
	WallS         float64     `json:"wall_s"`
	SetupS        float64     `json:"setup_s"`
	Events        int64       `json:"events"`
	PaperErrGmean float64     `json:"paper_err_gmean"`
	SimSeconds    float64     `json:"sim_seconds"`
	Experiments   []expResult `json:"experiments"`

	Windows sim.WindowStats `json:"windows"` // summed over the experiments

	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCCPUShare float64 `json:"gc_cpu_share"`

	// Traced repetitions only: the harness spans, and the CPU profile's
	// samples bucketed by bucketRules (shares of all samples, summing to 1).
	Spans      []span             `json:"spans,omitempty"`
	HostShares map[string]float64 `json:"host_shares,omitempty"`

	// Filled in by the parent from the child's rusage.
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// digest is the combined digest of the repetition's tables, in the pinned
// experiment order.
func (r repResult) digest() string {
	h := sha256.New()
	for _, e := range r.Experiments {
		fmt.Fprintf(h, "%s %s\n", e.ID, e.Digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func tableDigest(t *bench.Table) string {
	var buf bytes.Buffer
	t.Render(&buf)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// badCell names the first cell that cannot be a measurement.
func badCell(t *bench.Table) string {
	for _, row := range t.Rows {
		for i, c := range row.Cells {
			if math.IsNaN(c.Measured) || math.IsInf(c.Measured, 0) || c.Measured < 0 {
				return fmt.Sprintf("cell %q[%d] = %v", row.Label, i, c.Measured)
			}
		}
	}
	return ""
}

// paperError accumulates |ln(measured/paper)| over every cell with a
// published value. Cells without one are unvalidated and do not enter.
type paperError struct {
	sumAbsLog float64
	cells     int
}

func (p *paperError) add(t *bench.Table) {
	for _, row := range t.Rows {
		for _, c := range row.Cells {
			if c.Paper != 0 && c.Measured > 0 {
				p.sumAbsLog += math.Abs(math.Log(c.Measured / c.Paper))
				p.cells++
			}
		}
	}
}

// gmean is exp(mean |ln(measured/paper)|) - 1: 0 is a perfect reproduction,
// 0.25 means a typical cell is off by a factor of 1.25 either way.
func (p paperError) gmean() float64 {
	if p.cells == 0 {
		return 0
	}
	return math.Exp(p.sumAbsLog/float64(p.cells)) - 1
}

// simSeconds sums the measured cells of a table reported in seconds.
func simSeconds(t *bench.Table) float64 {
	if !strings.HasPrefix(t.Unit, "seconds") {
		return 0
	}
	var s float64
	for _, row := range t.Rows {
		for _, c := range row.Cells {
			s += c.Measured
		}
	}
	return s
}

// runSuiteChild is one repetition: everything a user of gammabench pays for,
// Wisconsin generation and image builds included, in a process that has done
// nothing before.
func runSuiteChild(spec childSpec) (repResult, error) {
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return repResult{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	o := w.Opts(spec.Seed)
	o.Kernel = w.Kernel
	if spec.Kernel != "" {
		o.Kernel = spec.Kernel
	}
	o.KernelWorkers = hostP()

	var rec *recorder
	if spec.Trace {
		rec = newRecorder()
	}
	root := rec.begin(0, "workload."+w.Name, "harness")
	suite := rec.begin(root, "bench.RunSuite", "bench")

	// Each experiment runs inside a wrapper that times it and turns a panic
	// into a failed operation instead of a dead child. A panic on one of
	// parMap's goroutines still kills the child; the parent then counts all
	// of the repetition's operations as failed.
	var mu sync.Mutex
	panics := map[string]string{}
	spanOf := map[string]int{}
	exps := make([]bench.Experiment, len(w.IDs))
	for i, id := range w.IDs {
		e, ok := bench.Lookup(id)
		if !ok {
			return repResult{}, fmt.Errorf("workload %s pins experiment %q, which is not registered", w.Name, id)
		}
		run := e.Run
		e.Run = func(o bench.Options) (t *bench.Table) {
			sp := rec.begin(suite, "bench.experiment."+id, "bench")
			defer func() {
				rec.end(sp, 1)
				mu.Lock()
				defer mu.Unlock()
				spanOf[id] = sp
				if r := recover(); r != nil {
					panics[id] = fmt.Sprint(r)
				}
			}()
			return run(o)
		}
		exps[i] = e
	}

	var profile bytes.Buffer
	if spec.Trace {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return repResult{}, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	reports := bench.RunSuite(exps, o, w.suiteWorkers())
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if spec.Trace {
		pprof.StopCPUProfile()
	}
	rec.end(suite, int64(len(reports)))
	rec.end(root, 1)

	res := repResult{
		WallS:      wall.Seconds(),
		Mallocs:    m1.Mallocs - m0.Mallocs,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		GCCycles:   m1.NumGC - m0.NumGC,
		GCCPUShare: m1.GCCPUFraction,
	}
	var perr paperError
	var windows sim.WindowCounters
	for _, r := range reports {
		e := expResult{ID: r.ID, WallS: r.Wall.Seconds(), SetupS: r.Setup.Seconds(), Events: r.Events,
			ImageHits: r.ImageHits, ImageMisses: r.ImageMisses}
		switch {
		case panics[r.ID] != "":
			e.Failed = "panic: " + panics[r.ID]
		case r.Table == nil:
			e.Failed = "no table"
		default:
			e.Digest = tableDigest(r.Table)
			e.Failed = badCell(r.Table)
			perr.add(r.Table)
			res.SimSeconds += simSeconds(r.Table)
		}
		res.Experiments = append(res.Experiments, e)
		res.SetupS += e.SetupS
		res.Events += r.Events
		windows.Add(r.Windows)
		if sp := spanOf[r.ID]; sp != 0 {
			// bench.setup is cumulative over the experiment's data points; the
			// span starts with the experiment and lasts Report.Setup.
			t0 := rec.startOf(sp)
			rec.add(sp, "bench.setup", "setup", t0, t0+r.Setup.Nanoseconds(), r.ImageHits+r.ImageMisses)
		}
	}
	res.PaperErrGmean = perr.gmean()
	res.Windows = windows.Stats()
	if spec.Trace {
		res.Spans = rec.spans
		samples, err := readProfile(&profile)
		if err != nil {
			return repResult{}, err
		}
		res.HostShares = hostShares(samples)
	}
	return res, nil
}

// childMain runs the -child request and prints its JSON answer.
func childMain(arg string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: bad -child spec:", err)
		return 2
	}
	var out any
	var err error
	switch spec.Mode {
	case "suite":
		out, err = runSuiteChild(spec)
	case "probes":
		out, err = runProbesChild(spec)
	default:
		err = fmt.Errorf("unknown child mode %q", spec.Mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
