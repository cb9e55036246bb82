// Package bench regenerates every table and figure of the paper's
// evaluation (§5-§7): it builds the benchmark database on simulated Gamma
// and Teradata machines, runs the exact query suites, and renders the same
// rows and series the paper reports, with the paper's published numbers
// alongside for comparison.
package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// Options scales an experiment run.
type Options struct {
	// Sizes are the source-relation cardinalities for Tables 1-3. The
	// paper uses 10,000 / 100,000 / 1,000,000.
	Sizes []int
	// FigureTuples is the relation size for the figure sweeps (the paper
	// uses the 100,000-tuple relations).
	FigureTuples int
	// MaxProcs is the largest processor count in the speedup sweeps.
	MaxProcs int
	// Params overrides the default machine parameters.
	Params *config.Params
	// Kernel selects the simulation kernel: "serial" (or empty, the
	// default) runs each machine on the single-heap serial kernel;
	// "partitioned" builds each machine on a partitioned simulation with
	// one shard per node. The Gamma network model interacts across nodes
	// at the same simulated instant, so its partition declares lookahead
	// 0 and executes serialized in merged global order — byte-identical
	// to the serial kernel, which stays available as the oracle. The
	// GAMMA_KERNEL environment variable overrides an empty Kernel.
	Kernel string
	// KernelWorkers is the worker-goroutine budget a partitioned
	// simulation may use for conservative windows (effective with positive
	// lookahead). GAMMA_KERNEL_WORKERS overrides zero.
	KernelWorkers int
	// Lookahead controls the conservative-window lookahead of windowed
	// experiments: 0 derives it from the network's delivery-latency floor
	// (Net.MinLatency, the largest value the model can prove safe), a
	// positive value is used as-is but capped at that floor, and a negative
	// value forces lookahead 0 (fully serialized scheduling, the
	// pre-windowing kernel behavior). The GAMMA_LOOKAHEAD environment
	// variable overrides zero: unset/empty = derive, "0" or negative =
	// force serialized, positive = explicit µs. Only experiments that have
	// opted into windowed execution are affected.
	Lookahead sim.Dur
	// Fusion selects the partitioned kernel's adaptive shard-fusion mode:
	// "adaptive" (or empty, the default) engages the feedback policy that
	// coalesces shards when barrier rounds run thin and re-splits them when
	// traffic returns; "off" pins one shard per group (the pre-fusion
	// scheduler); "all" starts fully fused and lets the policy probe its
	// way back out. The GAMMA_FUSION environment variable overrides an
	// empty value.
	Fusion string

	// windowedOK marks the experiment as safe for positive-lookahead
	// windowed execution: its Gamma workload routes every cross-node
	// interaction through the nose latency floor. Experiments that inject
	// faults, share machines across concurrent queries, or build Teradata
	// machines leave it false and always run at lookahead 0.
	windowedOK bool

	// CampaignSeed seeds the availability experiment's generated fault
	// campaign (0 selects the default seed) and CampaignFaults sets how
	// many faults it injects per row (0 selects the default count). Same
	// seed, same campaign, byte-identical report.
	CampaignSeed   uint64
	CampaignFaults int

	// sem is the suite-wide worker-slot semaphore shared by RunSuite and
	// parMap; nil means serial. events, when set, accumulates the number of
	// simulated events across every machine the experiment builds, and
	// windows the partitioned kernel's EOT window-scheduler statistics.
	sem     chan struct{}
	events  *atomic.Int64
	windows *sim.WindowCounters

	// images is the suite-wide machine-image cache (see imagecache.go);
	// nil means every data point builds its database from scratch, which is
	// the reference the cached path must match byte-for-byte. setup
	// accumulates machine-build wall time (nanoseconds) and imgHits /
	// imgMisses the cache counters, all per experiment.
	images             *imageCache
	setup              *atomic.Int64
	imgHits, imgMisses *atomic.Int64

	// points is the suite-wide data-point cache (see shared.go); nil means
	// every experiment simulates every point it plots. sharedPts counts, per
	// experiment, the points it was handed instead of simulating.
	points    *onceMap[pointKey, any]
	sharedPts *atomic.Int64
}

// addSetup charges the time since start to the experiment's setup clock.
func (o Options) addSetup(start time.Time) {
	if o.setup != nil {
		o.setup.Add(int64(time.Since(start)))
	}
}

// noteImage records one image-cache lookup.
func (o Options) noteImage(hit bool) {
	switch {
	case hit && o.imgHits != nil:
		o.imgHits.Add(1)
	case !hit && o.imgMisses != nil:
		o.imgMisses.Add(1)
	}
}

// Full returns the paper-scale options.
func Full() Options {
	return Options{Sizes: []int{10000, 100000, 1000000}, FigureTuples: 100000, MaxProcs: 8}
}

// Quick returns reduced options for fast regression runs: Tables at 10k and
// 100k, figure sweeps on a 20,000-tuple relation.
func Quick() Options {
	return Options{Sizes: []int{10000, 100000}, FigureTuples: 20000, MaxProcs: 8}
}

func (o Options) params() config.Params {
	if o.Params != nil {
		return *o.Params
	}
	return config.Default()
}

// withPage returns a copy of o whose machine parameters use the given disk
// page size (the Figure 5-8 and §6.2.3 sweeps).
func (o Options) withPage(pageBytes int) Options {
	prm := o.params()
	prm.PageBytes = pageBytes
	o.Params = &prm
	return o
}

// kernel resolves the kernel knob: the explicit Options value, then the
// GAMMA_KERNEL environment variable, then the serial default.
func (o Options) kernel() string {
	if o.Kernel != "" {
		return o.Kernel
	}
	if k := os.Getenv("GAMMA_KERNEL"); k != "" {
		return k
	}
	return "serial"
}

// kernelWorkers resolves the window-worker budget (Options value, then
// GAMMA_KERNEL_WORKERS, then 1 = serialized).
func (o Options) kernelWorkers() int {
	if o.KernelWorkers > 0 {
		return o.KernelWorkers
	}
	if v := os.Getenv("GAMMA_KERNEL_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// fusion resolves the shard-fusion knob: the explicit Options value, then
// GAMMA_FUSION, then "adaptive".
func (o Options) fusion() string {
	if o.Fusion != "" {
		return o.Fusion
	}
	if f := os.Getenv("GAMMA_FUSION"); f != "" {
		return f
	}
	return "adaptive"
}

// fusionConfig maps the resolved knob to a kernel policy, or panics on an
// unknown mode (mirroring the kernel knob's strictness).
func (o Options) fusionConfig() sim.Fusion {
	switch f := o.fusion(); f {
	case "adaptive":
		return sim.Fusion{}
	case "off":
		return sim.Fusion{Off: true}
	case "all":
		return sim.Fusion{InitLevel: -1}
	default:
		panic(fmt.Sprintf("bench: unknown fusion mode %q (want adaptive, off, or all)", f))
	}
}

// windowed marks the experiment's machines as safe for positive-lookahead
// windows. Experiments opt in at the top of their Run functions.
func (o Options) windowed() Options {
	o.windowedOK = true
	return o
}

// serialized is the inverse: it pins the machines built from the returned
// options at lookahead 0 (Teradata models, fault injection, shared-machine
// concurrency).
func (o Options) serialized() Options {
	o.windowedOK = false
	return o
}

// lookaheadSetting resolves the raw lookahead knob: the explicit Options
// value, then GAMMA_LOOKAHEAD, then 0 (= derive).
func (o Options) lookaheadSetting() sim.Dur {
	if o.Lookahead != 0 {
		return o.Lookahead
	}
	if v := os.Getenv("GAMMA_LOOKAHEAD"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			if n <= 0 {
				return -1
			}
			return sim.Dur(n)
		}
	}
	return 0
}

// resolveLookahead returns the kernel lookahead this experiment's machines
// run at: 0 unless the experiment opted into windowed execution, otherwise
// the configured lookahead clamped to (0, Net.MinLatency]. The latency
// floor is the largest provably safe value — every remote delivery in the
// nose model arrives at least MinLatency after it was sent — and also the
// default.
func (o Options) resolveLookahead() sim.Dur {
	if !o.windowedOK {
		return 0
	}
	floor := o.params().Net.MinLatency
	if floor <= 0 {
		return 0
	}
	la := o.lookaheadSetting()
	switch {
	case la < 0:
		return 0
	case la == 0 || la > floor:
		return floor
	default:
		return la
	}
}

// newSim builds a simulator wired to the experiment's event counter, so the
// suite runner can report simulated events per second. With the
// "partitioned" kernel selected the simulation is partitioned before the
// machine is built, so nose.AddNode homes every node on its own shard; the
// lookahead is resolveLookahead's (positive only for experiments that opted
// into windowed execution). The "serial" kernel stays the oracle: for a
// windowed experiment it runs the identical partitioned simulation with one
// worker — same event-order keys, byte-identical traces — and for everything
// else the plain single-heap kernel.
func (o Options) newSim() *sim.Sim {
	s := sim.New()
	la := o.resolveLookahead()
	switch k := o.kernel(); k {
	case "serial":
		if la > 0 {
			s.Partition(la)
			s.SetWorkers(1)
		}
	case "partitioned":
		s.Partition(la)
		s.SetWorkers(o.kernelWorkers())
		s.SetFusion(o.fusionConfig())
	default:
		panic(fmt.Sprintf("bench: unknown kernel %q (want serial or partitioned)", k))
	}
	if o.events != nil {
		s.SetEventCounter(o.events)
	}
	if o.windows != nil {
		s.SetWindowCounters(o.windows)
	}
	return s
}

// Cell is one measured value with an optional published reference.
type Cell struct {
	Measured float64 // seconds (or unit of the table)
	Paper    float64 // 0 = not published
	Extra    string  // annotation such as an overflow count
}

// Row is one labelled line of a result table.
type Row struct {
	Label string
	Cells []Cell
}

// Table is one regenerated paper artifact.
type Table struct {
	ID      string
	Title   string
	Unit    string
	Columns []string
	Rows    []Row
	Notes   []string
	// Metrics are headline scalar results (throughput, speedup, counters)
	// for machine consumers: gammabench copies them into its -json report.
	// Render does not print them; the Rows already show the same data.
	Metrics map[string]float64
}

// Render writes the table as aligned text, showing measured values and, in
// brackets, the paper's published value where one exists.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, "   (values in %s; [brackets] = paper's published value)\n", t.Unit)
	}
	width := 10
	label := 46
	fmt.Fprintf(w, "%-*s", label, "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %*s", width+10, c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", label, r.Label)
		for _, c := range r.Cells {
			val := fmt.Sprintf("%.2f", c.Measured)
			if c.Extra != "" {
				val += "(" + c.Extra + ")"
			}
			ref := strings.Repeat(" ", 10)
			if c.Paper != 0 {
				ref = fmt.Sprintf("[%8.2f]", c.Paper)
			}
			fmt.Fprintf(w, " %*s%s", width, val, ref)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Table
}

var registry []Experiment

func register(id, title string, run func(o Options) *Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// registerWindowed registers an experiment whose Gamma machines are safe to
// run in positive-lookahead parallel windows: single-query-at-a-time
// workloads with no fault injection, where every cross-node interaction
// goes through the nose latency floor. The wrapper opts the experiment's
// options in; machines that must stay serialized inside it (Teradata
// references) opt back out individually.
func registerWindowed(id, title string, run func(o Options) *Table) {
	register(id, title, func(o Options) *Table { return run(o.windowed()) })
}

// Experiments lists all registered experiments in a stable order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- machine setup -------------------------------------------------------

// relSpec declares one relation of a machine image: everything Load needs,
// in a comparable/printable form so it can be part of an image-cache key.
type relSpec struct {
	name     string
	n        int
	seed     uint64
	strategy core.PartStrategy
	partAttr rel.Attr
	// indexed: clustered B-tree on unique1 plus a dense index on unique2
	// (the paper's "Aidx" physical version).
	indexed bool
}

// heapRel is the common case: a hash-declustered heap with no indexes.
func heapRel(name string, n int, seed uint64) relSpec {
	return relSpec{name: name, n: n, seed: seed, strategy: core.Hashed, partAttr: rel.Unique1}
}

// gammaRels is the standard benchmark database: the n-tuple relation in both
// physical versions (heap and fully indexed).
func gammaRels(n int, seed uint64) []relSpec {
	return []relSpec{
		{name: "Aheap", n: n, seed: seed, strategy: core.Hashed, partAttr: rel.Unique1},
		{name: "Aidx", n: n, seed: seed, strategy: core.Hashed, partAttr: rel.Unique1, indexed: true},
	}
}

// loadSpecRel applies one relSpec to a machine.
func loadSpecRel(m *core.Machine, rs relSpec) {
	spec := core.LoadSpec{Name: rs.name, Strategy: rs.strategy, PartAttr: rs.partAttr}
	if rs.indexed {
		u1 := rel.Unique1
		spec.ClusteredIndex = &u1
		spec.NonClusteredIndexes = []rel.Attr{rel.Unique2}
	}
	m.Load(spec, wisconsin.Shared(rs.n, rs.seed)) // Load only reads its input
}

// gammaMachine returns a loaded Gamma machine on a fresh simulation. With an
// image cache (any RunSuite run) the database is built and snapshotted once
// per distinct (geometry, mirroring, params, relations) key and every other
// request restores the snapshot copy-on-write; without one (o.images == nil,
// the uncached reference path) it is built from scratch. Both paths are
// byte-identical downstream: loading is free and eventless, restores rebase
// onto sim t=0 with cold buffer pools, and file ids and name counters are
// preserved by the snapshot.
func (o Options) gammaMachine(nDisk, nDiskless int, mirrored bool, specs []relSpec) *core.Machine {
	defer o.addSetup(time.Now())
	build := func(s *sim.Sim) *core.Machine {
		p := o.params()
		m := core.NewMachine(s, &p, nDisk, nDiskless)
		if mirrored {
			m.EnableMirroring()
		}
		for _, rs := range specs {
			loadSpecRel(m, rs)
		}
		return m
	}
	if o.images == nil {
		return build(o.newSim())
	}
	key := imageKey{nDisk: nDisk, nDiskless: nDiskless, mirrored: mirrored,
		prm: o.params(), rels: relsKey(specs)}
	snap, hit := o.images.get(key, func() *core.Snapshot {
		// The image is built on a throwaway simulator: loading schedules no
		// events, so the suite's event counters see exactly what an uncached
		// run's would.
		return build(sim.New()).Snapshot()
	})
	o.noteImage(hit)
	return core.RestoreMachine(o.newSim(), snap)
}

// gammaSetup is one Gamma machine with the standard benchmark relations.
type gammaSetup struct {
	m *core.Machine
	// heap: no indices (the "nonindexed" rows). idx: clustered on
	// unique1, dense on unique2 (the indexed rows).
	heap *core.Relation
	idx  *core.Relation
}

// newGamma builds a Gamma machine with nDisk+nDiskless processors and loads
// an n-tuple relation in both physical versions, plus any extra relations —
// part of the image, so they cache with it.
func newGamma(o Options, nDisk, nDiskless, n int, seed uint64, extras ...relSpec) *gammaSetup {
	m := o.gammaMachine(nDisk, nDiskless, false, append(gammaRels(n, seed), extras...))
	return setupFrom(m)
}

func setupFrom(m *core.Machine) *gammaSetup {
	g := &gammaSetup{m: m}
	g.heap = g.rel("Aheap")
	g.idx = g.rel("Aidx")
	return g
}

// rel returns a relation loaded into the machine image by name.
func (g *gammaSetup) rel(name string) *core.Relation {
	r, ok := g.m.Relation(name)
	if !ok {
		panic("bench: relation " + name + " missing from machine image")
	}
	return r
}

// selectSecs runs a selection and returns simulated seconds, dropping the
// result relation so repeated queries don't accumulate state.
func (g *gammaSetup) selectSecs(q core.SelectQuery) float64 {
	res := g.m.RunSelect(q)
	if res.ResultName != "" {
		g.m.Drop(res.ResultName)
	}
	return res.Elapsed.Seconds()
}

// joinRun runs a join and drops its result relation.
func (g *gammaSetup) joinRun(q core.JoinQuery) core.Result {
	res := g.m.RunJoin(q)
	if res.ResultName != "" {
		g.m.Drop(res.ResultName)
	}
	return res
}

// pct builds the paper's selection predicates: percent of the n-tuple
// relation on the given attribute (0 => empty result).
func pct(attr rel.Attr, n int, percent float64) rel.Pred {
	k := int32(float64(n) * percent / 100)
	if k <= 0 {
		// 0% selection: an empty range on the same attribute, so index
		// plans still know which index to probe.
		return rel.Between(attr, -2, -1)
	}
	return rel.Between(attr, 0, k-1)
}
