package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minReps is the fewest timed repetitions a run reports medians over,
	// unless fewer already overran -seconds.
	minReps = 3
	// maxReps stops a run whose repetitions finish implausibly fast.
	maxReps = 50
	// childTimeout bounds one child; the slowest (a traced repetition of the
	// largest workload) takes under 15 s on the reference box.
	childTimeout = 120 * time.Second
)

// metricStat is one end-to-end metric over the repetitions of a run.
type metricStat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func newStat(v []float64, unit string) metricStat {
	st := metricStat{Median: median(v), N: len(v), Unit: unit}
	for i, x := range v {
		if i == 0 || x < st.Min {
			st.Min = x
		}
		if i == 0 || x > st.Max {
			st.Max = x
		}
	}
	return st
}

// workloadResult is one workload's part of the result file.
type workloadResult struct {
	Name       string                `json:"name"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	EndToEnd   map[string]metricStat `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64    `json:"per_layer,omitempty"`
	// SimDigest and SimEvents are informational: a change that moves either
	// has changed the model and must say so.
	SimDigest string            `json:"sim_digest"`
	SimEvents int64             `json:"sim_events"`
	Digests   map[string]string `json:"experiment_digests"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	// LayerSelfS is the span self time of the traced run by layer.
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
}

func (wr *workloadResult) fail(ops int, format string, args ...any) {
	wr.Failed += ops
	wr.Failures = append(wr.Failures, fmt.Sprintf(format, args...))
}

// ledger is the result file: one schema for every point of the trajectory.
type ledger struct {
	Schema    int              `json:"schema"`
	Commit    string           `json:"commit"`
	GoVersion string           `json:"go_version"`
	NProc     int              `json:"nproc"`
	P         int              `json:"p"`
	Seed      uint64           `json:"seed"`
	Workloads []workloadResult `json:"workloads"`
}

type runner struct {
	exe     string
	seed    uint64
	seconds float64 // measure each workload's timed repetitions for about this long
	reps    int     // >0: exactly this many timed repetitions instead
	probes  bool    // the traced run includes the layer probes
	probed  []probeRun
	log     io.Writer
}

// child runs one request in a fresh process at the given GOMAXPROCS and
// decodes its answer. The GAMMA_* knobs are removed from its environment:
// the workload, not the caller's shell, decides kernel and lookahead.
func (r *runner) child(gomaxprocs int, spec childSpec, out any) (*syscall.Rusage, error) {
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, "-child", string(arg))
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GAMMA_") && !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = r.log
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("child timed out after %v", childTimeout)
		}
		return nil, fmt.Errorf("child: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return nil, fmt.Errorf("child answer: %w", err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

// suiteRep runs one repetition of w and checks it: every experiment is one
// operation, failed when it panicked, produced an impossible cell, or
// rendered a table that differs from the reference digests.
func (r *runner) suiteRep(w workload, wr *workloadResult, what string, spec childSpec) (repResult, bool) {
	spec.Mode, spec.Workload, spec.Seed = "suite", w.Name, r.seed
	wr.Attempted += len(w.IDs)
	var rep repResult
	ru, err := r.child(w.gomaxprocs(), spec, &rep)
	if err != nil {
		wr.fail(len(w.IDs), "%s: %v", what, err)
		return rep, false
	}
	if ru != nil {
		rep.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	for _, e := range rep.Experiments {
		switch ref, seen := wr.Digests[e.ID]; {
		case e.Failed != "":
			wr.fail(1, "%s: %s: %s", what, e.ID, e.Failed)
		case !seen:
			wr.Digests[e.ID] = e.Digest
		case ref != e.Digest:
			wr.fail(1, "%s: %s renders differently from an earlier repetition", what, e.ID)
		}
	}
	return rep, true
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// timed runs the untraced repetitions, each in a fresh child, and reduces
// them to the end-to-end metrics.
func (r *runner) timed(w workload, wr *workloadResult) {
	var reps []repResult
	start, last := time.Now(), 0.0
	for i := 0; i < maxReps; i++ {
		if r.reps > 0 {
			if i >= r.reps {
				break
			}
		} else if el := time.Since(start).Seconds(); (i >= minReps || el > r.seconds) && el+last > r.seconds {
			// Out of time. minReps holds only inside the budget: on a box so
			// slow that two repetitions overrun it, two is what a run reports.
			break
		}
		t0 := time.Now()
		rep, ok := r.suiteRep(w, wr, fmt.Sprintf("repetition %d", i+1), childSpec{})
		last = time.Since(t0).Seconds()
		if ok {
			reps = append(reps, rep)
		}
	}
	col := func(f func(repResult) float64) []float64 {
		out := make([]float64, len(reps))
		for i, rep := range reps {
			out[i] = f(rep)
		}
		return out
	}
	values := map[string][]float64{
		"wall_s":          col(func(r repResult) float64 { return r.WallS }),
		"events_per_s":    col(func(r repResult) float64 { return float64(r.Events) / r.WallS }),
		"cpu_s":           col(func(r repResult) float64 { return r.CPUS }),
		"setup_s":         col(func(r repResult) float64 { return r.SetupS }),
		"peak_rss_mb":     col(func(r repResult) float64 { return r.PeakRSSMB }),
		"paper_err_gmean": col(func(r repResult) float64 { return r.PaperErrGmean }),
	}
	wr.EndToEnd = map[string]metricStat{}
	for _, m := range endToEnd {
		wr.EndToEnd[m.Name] = newStat(values[m.Name], m.Unit)
	}
	if len(reps) > 0 {
		wr.SimDigest, wr.SimEvents = reps[0].digest(), reps[0].Events
	}
}

// traced is the one extra run per workload that produces the per-layer
// metrics: a reference repetition, the same repetition with spans and a CPU
// profile on, the same on the other kernel, and the layer probes.
// End-to-end metrics never come from here.
func (r *runner) traced(w workload, wr *workloadResult) []tracedSpans {
	pl := map[string]float64{}
	for _, m := range perLayer {
		pl[m.Name] = 0
	}
	wr.PerLayer = pl
	var sets []tracedSpans

	ref, ok := r.suiteRep(w, wr, "reference repetition", childSpec{})
	if !ok {
		return nil
	}
	wr.SimDigest, wr.SimEvents = ref.digest(), ref.Events
	pl["sim.events"] = float64(ref.Events)
	pl["sim.kernel_windows"] = float64(ref.Windows.Windows)
	pl["sim.window_occupancy"] = ref.Windows.Occupancy()
	pl["sim.events_per_window"] = div(float64(ref.Windows.WindowEvents), float64(ref.Windows.Windows))
	pl["sim.fuse_ops"] = float64(ref.Windows.FuseOps)
	pl["sim.split_ops"] = float64(ref.Windows.SplitOps)
	pl["core.sim_s_total"] = ref.SimSeconds
	pl["bench.setup_share"] = ref.SetupS / ref.WallS
	pl["runtime.allocs_per_event"] = div(float64(ref.Mallocs), float64(ref.Events))
	pl["runtime.bytes_per_event"] = div(float64(ref.AllocBytes), float64(ref.Events))
	pl["runtime.gc_cpu_share"] = ref.GCCPUShare
	pl["runtime.gc_cycles"] = float64(ref.GCCycles)
	var hits, misses int64
	for _, e := range ref.Experiments {
		hits += e.ImageHits
		misses += e.ImageMisses
		if g := groupOf[e.ID]; g != "" {
			pl["bench.group_wall_s."+g] += e.WallS
		}
	}
	pl["bench.image_hit_ratio"] = ratio(hits, misses)

	if tr, ok := r.suiteRep(w, wr, "traced repetition", childSpec{Trace: true}); ok {
		pl["bench.trace_overhead"] = tr.WallS / ref.WallS
		for b, share := range tr.HostShares {
			pl["host.share."+b] = share
		}
		sets = append(sets, tracedSpans{Workload: w.Name, Process: "suite", Spans: tr.Spans})
	}

	// The same experiments on the other kernel: the wall ratio is the
	// keep-or-delete number for the window scheduler, and the tables must be
	// identical (suiteRep compares the digests).
	other := "partitioned"
	if w.Kernel == other {
		other = "serial"
	}
	if alt, ok := r.suiteRep(w, wr, other+"-kernel repetition", childSpec{Kernel: other}); ok {
		if other == "serial" {
			pl["sim.windows_vs_serial"] = ref.WallS / alt.WallS
		} else {
			pl["sim.windows_vs_serial"] = alt.WallS / ref.WallS
		}
	}

	if r.probes {
		for _, pr := range r.probeRuns() {
			if pr.err != nil {
				wr.Attempted++
				wr.fail(1, "%s: %v", pr.process, pr.err)
				continue
			}
			wr.Attempted += pr.res.Attempted
			wr.Failed += pr.res.Failed
			wr.Failures = append(wr.Failures, pr.res.Failures...)
			for name, v := range pr.res.Metrics {
				pl[name] = v
			}
			sets = append(sets, tracedSpans{Workload: w.Name, Process: pr.process, Spans: pr.res.Spans})
		}
	}

	wr.LayerSelfS = map[string]float64{}
	for _, set := range sets {
		for layer, s := range layerSelfSeconds(set.Spans) {
			wr.LayerSelfS[layer] += s
		}
	}
	return sets
}

// probeRun is the answer of one probes child.
type probeRun struct {
	process string
	res     probesResult
	err     error
}

// probeRuns runs the layer probes once per invocation, in two children: the
// single-core set at GOMAXPROCS=1 and the *_mc set at GOMAXPROCS=P. The
// probes do not depend on the workload, so every workload's traced run
// reports the same values and counts the same known-answer checks.
func (r *runner) probeRuns() []probeRun {
	if r.probed == nil {
		for _, mc := range []bool{false, true} {
			pr := probeRun{process: "probes"}
			gmp := 1
			if mc {
				gmp, pr.process = hostP(), "probes_mc"
			}
			_, pr.err = r.child(gmp, childSpec{Mode: "probes", Seed: r.seed, Trace: true, Multicore: mc}, &pr.res)
			r.probed = append(r.probed, pr)
		}
	}
	return r.probed
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// failShare is failed operations over attempted ones.
func (wr workloadResult) failShare() float64 { return div(float64(wr.Failed), float64(wr.Attempted)) }

// printWorkload writes every metric as "workload metric value unit".
func printWorkload(w io.Writer, wr workloadResult) {
	for _, m := range endToEnd {
		st, ok := wr.EndToEnd[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s %s %v %s   # %s clock; median of %d, min %v, max %v\n",
			wr.Name, m.Name, st.Median, m.Unit, m.Clock, st.N, st.Min, st.Max)
	}
	fmt.Fprintf(w, "%s %s %v ratio   # %d failed of %d operations\n", wr.Name, failShare, wr.failShare(), wr.Failed, wr.Attempted)
	if wr.PerLayer != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%s %s %v %s   # %s clock\n", wr.Name, m.Name, wr.PerLayer[m.Name], m.Unit, m.Clock)
		}
		layers := make([]string, 0, len(wr.LayerSelfS))
		for l := range wr.LayerSelfS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "# %s span self time in %s: %.3f s\n", wr.Name, l, wr.LayerSelfS[l])
		}
	}
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "# %s FAILED %s\n", wr.Name, f)
	}
	fmt.Fprintf(w, "# %s sim_events %d sim_digest %s\n", wr.Name, wr.SimEvents, wr.SimDigest)
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLineOf(wr workloadResult) resultLine {
	rl := resultLine{Correct: wr.Failed == 0 && wr.Attempted > 0, Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: map[string]resultValue{}}
	for _, m := range endToEnd {
		if st, ok := wr.EndToEnd[m.Name]; ok {
			rl.Metrics[m.Name] = resultValue{st.Median, m.Unit}
		}
	}
	if wr.PerLayer != nil {
		for _, m := range perLayer {
			rl.Metrics[m.Name] = resultValue{wr.PerLayer[m.Name], m.Unit}
		}
	}
	return rl
}
