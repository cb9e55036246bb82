// Command benchmark is the repo's performance ledger: one command that runs
// the pinned workloads of the Gamma simulator, each repetition in a fresh
// child process, prints every metric as "workload metric value unit", checks
// the outputs, and writes one result file that `benchmark compare` can diff
// against any other point of the trajectory. See README.md in this directory.
//
//	go run ./benchmark [-workload NAME] [-seed S] [-seconds N | -reps N]
//	                   [-trace 0|1|2] [-out FILE] [-trace-out FILE] [-list] [-smoke]
//	go run ./benchmark compare BASE.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (see -list)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs: Options.CampaignSeed and the layer probes' relations")
	seconds := fs.Float64("seconds", 25, "measure each workload's timed repetitions for about this many seconds (never fewer than 3 repetitions)")
	reps := fs.Int("reps", 0, "run exactly this many timed repetitions instead of -seconds")
	traceMode := fs.Int("trace", 2, "0: timed repetitions only (end-to-end metrics); 1: traced run only (per-layer metrics); 2: both")
	out := fs.String("out", "", "write the result file (JSON) here")
	traceOut := fs.String("trace-out", "", "write the traced runs' spans here as JSONL (gzipped if the name ends in .gz)")
	list := fs.Bool("list", false, "list workloads and metrics and exit")
	smoke := fs.Bool("smoke", false, "harness self-test: one repetition of three sub-second experiments, timed only")
	child := fs.String("child", "", "internal: run one child request (JSON)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return childMain(*child)
	}
	if *list {
		printList(stdout)
		return 0
	}
	if *smoke {
		*name, *reps, *traceMode = smokeWorkload.Name, 1, 0
	}
	if *traceMode < 0 || *traceMode > 2 || *reps < 0 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (see -list)\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	r := &runner{exe: exe, seed: *seed, seconds: *seconds, reps: *reps, probes: true, log: stderr}

	led := ledger{Schema: 1, Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), P: hostP(), Seed: *seed}
	var spans []tracedSpans
	for _, w := range selected {
		wr := workloadResult{Name: w.Name, GOMAXPROCS: w.gomaxprocs(), Digests: map[string]string{}}
		if *traceMode != 1 {
			r.timed(w, &wr)
		}
		if *traceMode != 0 {
			spans = append(spans, r.traced(w, &wr)...)
		}
		led.Workloads = append(led.Workloads, wr)
	}
	crossCheckQuick(led.Workloads)

	failed := 0
	for _, wr := range led.Workloads {
		printWorkload(stdout, wr)
		failed += wr.Failed
	}
	if *out != "" {
		if err := writeJSON(*out, led); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(led.Workloads) == 1 {
		line, err := json.Marshal(resultLineOf(led.Workloads[0]))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// crossCheckQuick holds quick_multicore to quick_1core's tables when one
// invocation ran both: suite workers must not reach the results.
func crossCheckQuick(ws []workloadResult) {
	var one, multi *workloadResult
	for i := range ws {
		switch ws[i].Name {
		case "quick_1core":
			one = &ws[i]
		case "quick_multicore":
			multi = &ws[i]
		}
	}
	if one == nil || multi == nil {
		return
	}
	for id, d := range multi.Digests {
		multi.Attempted++
		if ref, ok := one.Digests[id]; ok && ref != d {
			multi.fail(1, "%s renders differently from quick_1core", id)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit names the source the result was taken on, when the checkout is a
// git repository and git is there to ask.
func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printList(w io.Writer) {
	fmt.Fprintf(w, "P = min(nproc, 4) = %d on this host\n\nworkloads:\n", hostP())
	for _, wl := range workloads {
		gate := "not gated"
		if wl.Gated {
			gate = "gated by BENCHMARK.json"
		}
		fmt.Fprintf(w, "  %-18s %d experiments, GOMAXPROCS=%d, %s: %s\n", wl.Name, len(wl.IDs), wl.gomaxprocs(), gate, wl.Why)
	}
	fmt.Fprintf(w, "\nend-to-end metrics (median, min, max, n over the repetitions):\n")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-18s %-6s %s is better, regression bound %.0f%%, %s clock\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.Clock)
	}
	fmt.Fprintf(w, "  %-18s %-6s lower is better, any increase is a regression\n", failShare, "ratio")
	fmt.Fprintf(w, "\nper-layer metrics (traced run):\n")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %-6s %s clock\n", m.Name, m.Unit, m.Clock)
	}
}
