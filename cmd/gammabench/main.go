// Command gammabench regenerates the paper's tables and figures on the
// simulated Gamma and Teradata machines.
//
// Usage:
//
//	gammabench [-quick] [-list] [-parallel N] [-json] [experiment ...]
//
// With no experiment arguments every registered experiment runs. -quick uses
// reduced relation sizes for a fast smoke run; the default is paper scale
// (10k/100k/1M tuples), which regenerates every published number.
//
// -parallel N fans experiments and their independent data points across N
// worker goroutines (default GOMAXPROCS). Every data point is its own
// single-threaded simulation with a fixed seed, so the rendered tables are
// byte-identical at any worker count. -json replaces the tables with a
// machine-readable report: per experiment, its table's rows (label, and
// measured, paper and extra for each cell) beside wall clock and simulated
// events/sec. -cpuprofile and -memprofile write pprof profiles. The program
// reads no environment variable: nothing but sizes can move a table.
//
// A retired experiment id (kernelscale, degraded, scaleup, netgen,
// availability) still resolves: it prints a one-row table saying why it was
// retired, and -list does not show it.
//
// Every flag value is validated up front, before anything simulates; a bad
// one prints a named error and the usage and exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"gamma/internal/bench"
)

// jsonExperiment is one experiment's entry in the -json report.
// wall_seconds keeps its historical meaning (total experiment wall clock);
// setup_wall_seconds/query_wall_seconds split it into machine-building time
// (relation-image builds and attaches) vs query simulation time. Setup is
// cumulative across an experiment's data points, so under -parallel it can
// exceed wall_seconds; query_wall_seconds is clamped at zero in that case.
// image_cache_hits/_misses count relations put on machines: a miss loaded
// the relation and imaged it first, a hit attached an image the suite had.
type jsonExperiment struct {
	ID               string  `json:"id"`
	Title            string  `json:"title"`
	WallSeconds      float64 `json:"wall_seconds"`
	SetupWallSeconds float64 `json:"setup_wall_seconds"`
	QueryWallSeconds float64 `json:"query_wall_seconds"`
	SimEvents        int64   `json:"simulated_events"`
	EventsPerSec     float64 `json:"events_per_second"`
	ImageCacheHits   int64   `json:"image_cache_hits"`
	ImageCacheMisses int64   `json:"image_cache_misses"`
	// SharedPoints counts data points the experiment took from the suite's
	// point cache: a sibling experiment that plots the same sweep simulated
	// them, and carries their events and wall time. Under -parallel > 1 which
	// sibling simulates is first-come; suite totals do not depend on it.
	SharedPoints int64 `json:"shared_points"`
	// Rows are the experiment's table, cell for cell: what the text output
	// prints, at full precision.
	Rows []bench.Row `json:"rows"`
}

type jsonReport struct {
	Suite            string           `json:"suite"` // "full" or "quick"
	Workers          int              `json:"workers"`
	GoMaxProcs       int              `json:"gomaxprocs"`
	TotalWallSeconds float64          `json:"total_wall_seconds"`
	SetupWallSeconds float64          `json:"setup_wall_seconds"` // sum over the experiments
	ImageCacheHits   int64            `json:"image_cache_hits"`
	ImageCacheMisses int64            `json:"image_cache_misses"`
	SharedPoints     int64            `json:"shared_points"`
	Experiments      []jsonExperiment `json:"experiments"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gammabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run with reduced relation sizes")
	list := fs.Bool("list", false, "list experiments and exit")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for experiments and independent data points")
	jsonOut := fs.Bool("json", false, "emit a machine-readable report instead of tables")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ids := fs.Args()
	var exps []bench.Experiment
	unknownExp := ""
	for _, id := range ids {
		e, ok := bench.Lookup(id)
		if !ok && unknownExp == "" {
			unknownExp = id
		}
		exps = append(exps, e)
	}
	if len(ids) == 0 {
		exps = bench.Experiments()
	}

	// The one validation table: every rejected flag value is a row, checked
	// up front — a typo must not cost hours of simulation or silently run
	// the default.
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*parallel < 1, fmt.Sprintf("-parallel must be >= 1 (got %d)", *parallel)},
		{unknownExp != "", fmt.Sprintf("unknown experiment %q (-list prints the valid ids)", unknownExp)},
	} {
		if c.bad {
			fmt.Fprintf(stderr, "gammabench: %s\n", c.msg)
			fs.Usage()
			return 2
		}
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Title)
		}
		return 0
	}

	opts := bench.Full()
	suite := "full"
	if *quick {
		opts = bench.Quick()
		suite = "quick"
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "gammabench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "gammabench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	reports := bench.RunSuite(exps, opts, *parallel)
	total := time.Since(start)

	if *jsonOut {
		rep := jsonReport{
			Suite:            suite,
			Workers:          *parallel,
			GoMaxProcs:       runtime.GOMAXPROCS(0),
			TotalWallSeconds: total.Seconds(),
		}
		for _, r := range reports {
			rep.SetupWallSeconds += r.Setup.Seconds()
			rep.ImageCacheHits += r.ImageHits
			rep.ImageCacheMisses += r.ImageMisses
			rep.SharedPoints += r.SharedPoints
			rep.Experiments = append(rep.Experiments, jsonExperiment{
				ID:               r.ID,
				Title:            r.Title,
				WallSeconds:      r.Wall.Seconds(),
				SetupWallSeconds: r.Setup.Seconds(),
				QueryWallSeconds: r.QueryWall().Seconds(),
				SimEvents:        r.Events,
				EventsPerSec:     r.EventsPerSec(),
				ImageCacheHits:   r.ImageHits,
				ImageCacheMisses: r.ImageMisses,
				SharedPoints:     r.SharedPoints,
				Rows:             r.Table.Rows,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "gammabench: %v\n", err)
			return 1
		}
	} else {
		// Tables and their fidelity footer go to stdout, wall-clock chatter
		// to stderr: the rendered output is byte-identical at any -parallel.
		bench.RenderSuite(stdout, reports)
		var hits, misses, sharedPts int64
		for _, r := range reports {
			hits += r.ImageHits
			misses += r.ImageMisses
			sharedPts += r.SharedPoints
			// An experiment that simulated nothing has no event rate to
			// report: it says whose measurements it plotted instead.
			work := fmt.Sprintf("%.1fM simulated events/s", r.EventsPerSec()/1e6)
			switch {
			case r.SharedPoints > 0 && r.Events == 0:
				work = fmt.Sprintf("all %d data points shared with a sibling experiment", r.SharedPoints)
			case r.SharedPoints > 0:
				work += fmt.Sprintf(", %d data points shared", r.SharedPoints)
			}
			fmt.Fprintf(stderr, "   [%s regenerated in %.1fs wall time (%.1fs setup + %.1fs query), %s, relations %d attached / %d built / %d generated]\n\n",
				r.ID, r.Wall.Seconds(), r.Setup.Seconds(), r.QueryWall().Seconds(),
				work, r.ImageHits+r.ImageMisses, r.ImageMisses, r.Generated)
		}
		fmt.Fprintf(stderr, "   [relation-image cache: %d relations attached, %d built; %d data points shared between experiments]\n", hits+misses, misses, sharedPts)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "gammabench: -memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "gammabench: -memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
