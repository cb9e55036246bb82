// Command gammabench regenerates the paper's tables and figures on the
// simulated Gamma and Teradata machines.
//
// Usage:
//
//	gammabench [-quick] [-list] [-parallel N] [-json] [-kernel serial|partitioned]
//	           [-kernel-workers N] [-fusion adaptive|off|all] [-lookahead US]
//	           [-generation NAME] [-campaign-seed S] [-campaign-faults N]
//	           [-experiment a,b] [experiment ...]
//
// With no experiment arguments every registered experiment runs; experiments
// can be named positionally or as a comma-separated -experiment list (both
// forms combine). -quick uses reduced relation sizes for a fast smoke run;
// the default is paper scale (10k/100k/1M tuples), which regenerates every
// published number.
//
// -parallel N fans experiments and their independent data points across N
// worker goroutines (default GOMAXPROCS). Every data point is its own
// single-threaded simulation with a fixed seed, so the rendered tables are
// byte-identical at any worker count. -json replaces the tables with a
// machine-readable report (wall-clock and simulated-events/sec per
// experiment). -cpuprofile and -memprofile write pprof profiles.
//
// -kernel selects the simulation kernel: "serial" (the default) or
// "partitioned" (one shard per simulated node). Experiments whose Gamma
// workload is safe for windowed execution derive a positive conservative
// lookahead from the network's delivery-latency floor (Net.MinLatency), so
// their partitioned simulations run truly parallel windows; the serial
// kernel runs the identical partition on one worker and stays the
// byte-exact oracle (same tables, JSON, and traces). Experiments that
// inject faults, share machines across concurrent queries, or build
// Teradata machines always run serialized at lookahead 0.
// -kernel-workers bounds the goroutines a partitioned simulation may use
// for conservative windows. -fusion selects the partitioned kernel's
// adaptive shard-fusion mode (DESIGN.md §13): "adaptive" (the default)
// coalesces shards onto shared heaps when barrier rounds run thin and
// re-splits them when traffic returns, "off" pins one shard per group, and
// "all" starts fully fused. -lookahead overrides the derived lookahead in
// simulated microseconds: 0 forces fully serialized scheduling, a positive
// value is capped at the latency floor (the largest provably safe value),
// and -1 (the default) derives it. The GAMMA_KERNEL, GAMMA_KERNEL_WORKERS,
// GAMMA_FUSION, and GAMMA_LOOKAHEAD environment variables provide the same
// knobs to the test suite.
//
// -generation parameterizes every machine with a named hardware generation
// (-list-generations enumerates them; the default is gamma1988, the paper's
// VAX-era build). Unknown names are rejected with the valid list — the
// GAMMA_GENERATION environment variable provides the same knob, and the
// flag wins when both are set. The partitioned kernel derives its windows
// from the generation's network latency floor, so fast generations lean on
// the earliest-output-time scheduler (see DESIGN.md §12); the -json report
// echoes the generation and adds the kernel's window counters.
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
	"gamma/internal/sim"
)

// jsonExperiment is one experiment's entry in the -json report.
// wall_seconds keeps its historical meaning (total experiment wall clock);
// setup_wall_seconds/query_wall_seconds split it into machine-image
// build/restore time vs query simulation time. Setup is cumulative across an
// experiment's data points, so under -parallel it can exceed wall_seconds;
// query_wall_seconds is clamped at zero in that case.
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
	KernelWindows         int64              `json:"kernel_windows"`
	KernelWindowOccupancy float64            `json:"kernel_window_occupancy"`
	KernelEventsPerWindow float64            `json:"kernel_events_per_window"`
	KernelPromises        int64              `json:"kernel_promises"`
	KernelGroupWindows    int64              `json:"kernel_group_windows"`
	KernelFuseOps         int64              `json:"kernel_fuse_ops"`
	KernelSplitOps        int64              `json:"kernel_split_ops"`
	Metrics               map[string]float64 `json:"metrics,omitempty"`
}

type jsonReport struct {
	Suite      string `json:"suite"`      // "full" or "quick"
	Kernel     string `json:"kernel"`     // "serial" or "partitioned"
	Fusion     string `json:"fusion"`     // shard-fusion mode: "adaptive", "off", or "all"
	Generation string `json:"generation"` // hardware generation the machines were parameterized with
	// LookaheadUS echoes the -lookahead flag: -1 = derived from the
	// network latency floor, 0 = forced serialized, else explicit µs.
	LookaheadUS      int              `json:"lookahead_us"`
	Workers          int              `json:"workers"`
	GoMaxProcs       int              `json:"gomaxprocs"`
	TotalWallSeconds float64          `json:"total_wall_seconds"`
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
	kernel := fs.String("kernel", "", "simulation `kernel`: serial (default) or partitioned; partitioned shards each machine one-per-node with the serial order as oracle")
	kernelWorkers := fs.Int("kernel-workers", 0, "worker goroutines per partitioned simulation's conservative windows (models with positive lookahead only)")
	fusionMode := fs.String("fusion", "", "partitioned-kernel shard-fusion `mode`: adaptive (default), off, or all")
	lookahead := fs.Int("lookahead", -1, "conservative-window lookahead in simulated `microseconds` for windowed experiments: -1 derives it from the network latency floor, 0 forces serialized scheduling, positive values are capped at the floor")
	generation := fs.String("generation", "", "hardware `generation` to parameterize the machines with (see -list-generations; default gamma1988)")
	listGens := fs.Bool("list-generations", false, "list hardware generations and exit")
	experiment := fs.String("experiment", "", "comma-separated experiment `ids` to run (adds to positional ids)")
	campaignSeed := fs.Uint64("campaign-seed", 0, "`seed` for the availability experiment's fault campaign (0 = default)")
	campaignFaults := fs.Int("campaign-faults", 0, "faults per availability campaign (0 = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "gammabench: -parallel must be >= 1 (got %d)\n", *parallel)
		fs.Usage()
		return 2
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
	// -generation wins over the GAMMA_GENERATION environment variable; both
	// are validated strictly — a typo must not silently run gamma1988.
	genName := *generation
	if genName == "" {
		genName = os.Getenv("GAMMA_GENERATION")
	}
	if genName != "" {
		prm, ok := config.ByGeneration(genName)
		if !ok {
			fmt.Fprintf(stderr, "gammabench: unknown generation %q (valid: %s)\n",
				genName, strings.Join(config.GenerationNames(), ", "))
			fs.Usage()
			return 2
		}
		opts.Params = &prm
	} else {
		genName = "gamma1988"
	}
	switch *kernel {
	case "", "serial", "partitioned":
		opts.Kernel = *kernel
	default:
		fmt.Fprintf(stderr, "gammabench: -kernel must be serial or partitioned (got %q)\n", *kernel)
		fs.Usage()
		return 2
	}
	if *kernelWorkers < 0 {
		fmt.Fprintf(stderr, "gammabench: -kernel-workers must be >= 0 (got %d)\n", *kernelWorkers)
		fs.Usage()
		return 2
	}
	opts.KernelWorkers = *kernelWorkers
	switch *fusionMode {
	case "", "adaptive", "off", "all":
		opts.Fusion = *fusionMode
	default:
		fmt.Fprintf(stderr, "gammabench: -fusion must be adaptive, off, or all (got %q)\n", *fusionMode)
		fs.Usage()
		return 2
	}
	switch {
	case *lookahead < -1:
		fmt.Fprintf(stderr, "gammabench: -lookahead must be -1 (derive), 0 (serialize), or a positive microsecond count (got %d)\n", *lookahead)
		fs.Usage()
		return 2
	case *lookahead == 0:
		opts.Lookahead = -1 // force serialized scheduling
	case *lookahead > 0:
		opts.Lookahead = sim.Dur(*lookahead)
	}
	if *campaignFaults < 0 {
		fmt.Fprintf(stderr, "gammabench: -campaign-faults must be >= 0 (got %d)\n", *campaignFaults)
		fs.Usage()
		return 2
	}
	opts.CampaignSeed = *campaignSeed
	opts.CampaignFaults = *campaignFaults

	ids := fs.Args()
	for _, id := range strings.Split(*experiment, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	// Reject unknown experiments up front, before hours of simulation.
	for _, id := range ids {
		if _, ok := bench.Lookup(id); !ok {
			fmt.Fprintf(stderr, "gammabench: unknown experiment %q\n", id)
			fs.Usage()
			fmt.Fprintf(stderr, "experiments (use -list for titles):\n")
			for _, e := range bench.Experiments() {
				fmt.Fprintf(stderr, "  %s\n", e.ID)
			}
			return 2
		}
	}
	var exps []bench.Experiment
	if len(ids) == 0 {
		exps = bench.Experiments()
	} else {
		for _, id := range ids {
			e, _ := bench.Lookup(id)
			exps = append(exps, e)
		}
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
		kernelName := *kernel
		if kernelName == "" {
			kernelName = "serial"
		}
		fusionName := *fusionMode
		if fusionName == "" {
			fusionName = "adaptive"
		}
		rep := jsonReport{
			Suite:            suite,
			Kernel:           kernelName,
			Fusion:           fusionName,
			Generation:       genName,
			LookaheadUS:      *lookahead,
			Workers:          *parallel,
			GoMaxProcs:       runtime.GOMAXPROCS(0),
			TotalWallSeconds: total.Seconds(),
		}
		for _, r := range reports {
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
				Metrics:            r.Table.Metrics,
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
			fmt.Fprintf(stderr, "   [%s regenerated in %.1fs wall time (%.1fs setup + %.1fs query), %s, images %d hit/%d miss]\n\n",
				r.ID, r.Wall.Seconds(), r.Setup.Seconds(), r.QueryWall().Seconds(),
				work, r.ImageHits, r.ImageMisses)
		}
		fmt.Fprintf(stderr, "   [machine-image cache: %d restores, %d builds; %d data points shared between experiments]\n", hits, misses, sharedPts)
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
