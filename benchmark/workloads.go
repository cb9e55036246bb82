package main

import (
	"runtime"

	"gamma/internal/bench"
)

// hostP is P in every "*_multicore" definition: the OS threads a multi-core
// workload may keep busy. Results record it and compare refuses to diff
// results taken at different P.
func hostP() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// workload is one closed batch: a pinned list of registered experiments run
// once per repetition through bench.RunSuite at a stated input size. The
// lists are pinned here, not read from bench.Experiments(), so registering a
// new experiment does not silently change what a workload measures.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json when Gated
	IDs  []string
	// Gated workloads are the ones BENCHMARK.json declares: the builder's
	// driver runs them and holds their end-to-end metrics to the bounds. The
	// multi-core workloads are not gated. Their hand-offs and window barriers
	// wake the other vCPU, and on the shared 2-vCPU reference box the cost of
	// that wake-up is set by the hypervisor's other tenants: ten runs of the
	// same code spread by 24-30 % on wall, CPU and events/s there, past the
	// largest bound the contract allows. They stay in the ledger for hosts
	// with cores of their own.
	Gated bool
	// Opts builds the bench.Options of one repetition. The seed reaches the
	// suite through Options.CampaignSeed only: the registry experiments
	// hard-code their relation seeds.
	Opts func(seed uint64) bench.Options
	// Multicore runs the child at GOMAXPROCS=P (else 1). SuiteWorkers 0 means
	// P. A partitioned kernel always gets P window workers.
	Multicore    bool
	SuiteWorkers int
	Kernel       string
}

// suite31 is every experiment registered when the ledger was defined.
var suite31 = []string{
	"aggregate", "availability", "bitvector", "degraded",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"hybrid", "kernelscale", "multiuser", "netgen", "pagesize-default",
	"placement", "recovery", "scale100", "scaleup",
	"table1", "table2", "table3",
}

// windowed24 is the 21 registerWindowed experiments (the only ones whose
// machines run positive-lookahead windows) plus the three large-machine
// experiments that drive the lookahead-0 merged loop over 64-256 shards.
var windowed24 = []string{
	"table1",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"hybrid", "bitvector", "pagesize-default", "scaleup", "netgen",
	"kernelscale", "scale100", "availability",
}

func quickOpts(seed uint64) bench.Options {
	o := bench.Quick()
	o.CampaignSeed = seed
	return o
}

// windowsOpts is bench.Full() (8 processors) with the figure relations at
// windowsFigureTuples and Table 1 at 10k only: the figures are what exercise
// the windows, and Table 1's larger columns would spend the repetition in
// Teradata machines that never window.
func windowsOpts(seed uint64) bench.Options {
	o := bench.Full()
	o.Sizes = []int{10000}
	o.FigureTuples = windowsFigureTuples
	o.CampaignSeed = seed
	return o
}

// tablesOpts keeps the paper's 10k and 100k columns (every cell with a
// published value at those sizes) and replaces the 1M column, which alone is
// 35 s of host time, by tablesLargeTuples.
func tablesOpts(seed uint64) bench.Options {
	o := bench.Full()
	o.Sizes = []int{10000, 100000, tablesLargeTuples}
	o.CampaignSeed = seed
	return o
}

// Input sizes fixed by the time cap of the builder's contract when all four
// workloads were gated (4 + 22 x 4 runs inside 3420 s, so about 25 s a run,
// holding at least three repetitions). With two gated workloads a run is
// 55 s and holds five to seven repetitions; the sizes stay, so the committed
// baselines stay comparable.
const (
	windowsFigureTuples = 17000
	tablesLargeTuples   = 250000
)

var workloads = []workload{
	{
		Name:         "quick_1core",
		Why:          "ROADMAP headline: quick suite, serial kernel, one core; hand-off, calendar and model code dominate, windows idle",
		IDs:          suite31,
		Opts:         quickOpts,
		SuiteWorkers: 1,
		Kernel:       "serial",
		Gated:        true,
	},
	{
		Name:      "quick_multicore",
		Why:       "gammabench -quick default: same suite on P workers; cross-thread hand-offs, concurrent GC and image-cache contention",
		IDs:       suite31,
		Opts:      quickOpts,
		Multicore: true,
		Kernel:    "serial",
	},
	{
		Name:         "windows_multicore",
		Why:          "only workload where sim's window scheduler, EOT promises, fusion and barrier do the work: partitioned kernel, P kernel workers",
		IDs:          windowed24,
		Opts:         windowsOpts,
		Multicore:    true,
		SuiteWorkers: 1,
		Kernel:       "partitioned",
	},
	{
		Name:         "tables_full_1core",
		Why:          "paper Tables 1-3 with a relation far beyond host caches: joins, split tables, nose sends, page copies, image builds, updates",
		IDs:          []string{"table1", "table2", "table3"},
		Opts:         tablesOpts,
		SuiteWorkers: 1,
		Kernel:       "serial",
		Gated:        true,
	},
}

// smokeWorkload is the -smoke run: three sub-second experiments through the
// same child-process path. It is not part of the ledger.
var smokeWorkload = workload{
	Name:         "smoke",
	Why:          "harness self-test",
	IDs:          []string{"fig3", "fig7", "recovery"},
	Opts:         quickOpts,
	SuiteWorkers: 1,
	Kernel:       "serial",
}

func findWorkload(name string) (workload, bool) {
	if name == smokeWorkload.Name {
		return smokeWorkload, true
	}
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gomaxprocs is the GOMAXPROCS the workload's children run at.
func (w workload) gomaxprocs() int {
	if w.Multicore {
		return hostP()
	}
	return 1
}

func (w workload) suiteWorkers() int {
	if w.SuiteWorkers == 0 {
		return hostP()
	}
	return w.SuiteWorkers
}
