// Command gammabench regenerates the paper's tables and figures on the
// simulated Gamma and Teradata machines.
//
// Usage:
//
//	gammabench [-quick] [-list] [-parallel N] [-json] [-kernel serial|partitioned]
//	           [-kernel-workers N] [-generation NAME] [-campaign-seed S]
//	           [-campaign-faults N] [experiment ...]
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
// events/sec. -cpuprofile and -memprofile write pprof profiles.
//
// -kernel selects the simulation kernel: "serial" (the default) or
// "partitioned" (one shard per simulated node), and -kernel-workers N, valid
// only with the partitioned kernel, bounds the goroutines one simulation may
// use for its conservative windows. That pair is the whole host-side
// surface: the lookahead is always the network's delivery-latency floor on
// machines that opted into windows and 0 elsewhere, shard fusion is always
// adaptive, and the program reads no environment variable, so nothing but
// sizes, -generation and the campaign flags can move a table. The serial
// kernel is the byte-exact oracle for the partitioned one (same tables, JSON
// and traces; DESIGN.md §9).
//
// -generation parameterizes every machine with a named hardware generation
// (-list-generations enumerates them; the default is gamma1988, the paper's
// VAX-era build). The -json report echoes the generation and carries the
// kernel's window counters.
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
	"strings"
	"time"

	"gamma/internal/bench"
	"gamma/internal/config"
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
	// EOT window-scheduler counters, aggregated over every simulation the
	// experiment ran; all zero when it executed on the serial kernel. The
	// counts are deterministic (they depend only on the event schedule and
	// the declared floors/promises, not on worker interleaving).
	// Every counter key is always present — zero-valued when the serial
	// kernel ran — so downstream tooling never needs key-presence checks.
	KernelWindows         int64   `json:"kernel_windows"`
	KernelWindowOccupancy float64 `json:"kernel_window_occupancy"`
	KernelEventsPerWindow float64 `json:"kernel_events_per_window"`
	KernelPromises        int64   `json:"kernel_promises"`
	KernelGroupWindows    int64   `json:"kernel_group_windows"`
	KernelFuseOps         int64   `json:"kernel_fuse_ops"`
	KernelSplitOps        int64   `json:"kernel_split_ops"`
	// Rows are the experiment's table, cell for cell: what the text output
	// prints, at full precision.
	Rows []bench.Row `json:"rows"`
}

type jsonReport struct {
	Suite            string           `json:"suite"`      // "full" or "quick"
	Kernel           string           `json:"kernel"`     // "serial" or "partitioned"
	Generation       string           `json:"generation"` // hardware generation the machines were parameterized with
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
	kernel := fs.String("kernel", "serial", "simulation `kernel`: serial or partitioned (one shard per simulated node, with the serial order as oracle)")
	kernelWorkers := fs.Int("kernel-workers", 0, "worker goroutines per partitioned simulation's conservative windows (0 = one; needs -kernel partitioned)")
	generation := fs.String("generation", "gamma1988", "hardware `generation` to parameterize the machines with (see -list-generations)")
	listGens := fs.Bool("list-generations", false, "list hardware generations and exit")
	campaignSeed := fs.Uint64("campaign-seed", 0, "`seed` for the availability experiment's fault campaign (0 = default)")
	campaignFaults := fs.Int("campaign-faults", 0, "faults per availability campaign (0 = default)")
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
	prm, genOK := config.ByGeneration(*generation)

	// The one validation table: every rejected flag value is a row, checked
	// up front — a typo must not cost hours of simulation or silently run
	// the default.
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*parallel < 1, fmt.Sprintf("-parallel must be >= 1 (got %d)", *parallel)},
		{*kernel != "serial" && *kernel != "partitioned",
			fmt.Sprintf("-kernel must be serial or partitioned (got %q)", *kernel)},
		{*kernelWorkers < 0, fmt.Sprintf("-kernel-workers must be >= 0 (got %d)", *kernelWorkers)},
		{*kernelWorkers > 0 && *kernel != "partitioned",
			fmt.Sprintf("-kernel-workers %d needs -kernel partitioned: the serial kernel has no windows to spread", *kernelWorkers)},
		{*campaignFaults < 0, fmt.Sprintf("-campaign-faults must be >= 0 (got %d)", *campaignFaults)},
		{!genOK, fmt.Sprintf("unknown generation %q (valid: %s)",
			*generation, strings.Join(config.GenerationNames(), ", "))},
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
	if *listGens {
		for _, g := range config.Generations() {
			fmt.Fprintf(stdout, "%-12s %s\n", g.Name, g.Desc)
		}
		return 0
	}

	opts := bench.Full()
	suite := "full"
	if *quick {
		opts = bench.Quick()
		suite = "quick"
	}
	opts.Params = &prm
	opts.Kernel = *kernel
	opts.KernelWorkers = *kernelWorkers
	opts.CampaignSeed = *campaignSeed
	opts.CampaignFaults = *campaignFaults

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
			Kernel:           *kernel,
			Generation:       *generation,
			Workers:          *parallel,
			GoMaxProcs:       runtime.GOMAXPROCS(0),
			TotalWallSeconds: total.Seconds(),
		}
		for _, r := range reports {
			rep.SetupWallSeconds += r.Setup.Seconds()
			rep.ImageCacheHits += r.ImageHits
			rep.ImageCacheMisses += r.ImageMisses
			rep.SharedPoints += r.SharedPoints
			je := jsonExperiment{
				ID:                 r.ID,
				Title:              r.Title,
				WallSeconds:        r.Wall.Seconds(),
				SetupWallSeconds:   r.Setup.Seconds(),
				QueryWallSeconds:   r.QueryWall().Seconds(),
				SimEvents:          r.Events,
				EventsPerSec:       r.EventsPerSec(),
				ImageCacheHits:     r.ImageHits,
				ImageCacheMisses:   r.ImageMisses,
				SharedPoints:       r.SharedPoints,
				KernelWindows:      r.Windows.Windows,
				KernelPromises:     r.Windows.Promises,
				KernelGroupWindows: r.Windows.GroupWindows,
				KernelFuseOps:      r.Windows.FuseOps,
				KernelSplitOps:     r.Windows.SplitOps,
				Rows:               r.Table.Rows,
			}
			if r.Windows.Windows > 0 {
				je.KernelWindowOccupancy = r.Windows.Occupancy()
				je.KernelEventsPerWindow = float64(r.Windows.WindowEvents) / float64(r.Windows.Windows)
			}
			rep.Experiments = append(rep.Experiments, je)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "gammabench: %v\n", err)
			return 1
		}
	} else {
		// Tables go to stdout; wall-clock chatter goes to stderr so the
		// rendered output is byte-identical at any -parallel setting.
		var hits, misses, sharedPts int64
		for _, r := range reports {
			r.Table.Render(stdout)
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
			fmt.Fprintf(stderr, "   [%s regenerated in %.1fs wall time (%.1fs setup + %.1fs query), %s, relations %d attached / %d built]\n\n",
				r.ID, r.Wall.Seconds(), r.Setup.Seconds(), r.QueryWall().Seconds(),
				work, r.ImageHits+r.ImageMisses, r.ImageMisses)
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
