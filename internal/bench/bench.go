// Package bench regenerates every table and figure of the paper's
// evaluation (§5-§7): it builds the benchmark database on simulated Gamma
// and Teradata machines, runs the exact query suites, and renders the same
// rows and series the paper reports, with the paper's published numbers
// alongside for comparison.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// Options is what a user sets for an experiment run: sizes and machine
// parameters. Nothing else — no flag, no environment variable — reaches a
// simulation.
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

	harnessOptions

	// run is the plumbing RunSuite threads through an experiment; nil
	// outside a suite run.
	run *runCtx
}

// runCtx is the run context of one phase (see RunSuite), one Run call of an
// experiment. Every method is safe on a nil receiver, which is the reference
// path the suite must match byte-for-byte: serial fan-out, every machine
// built from scratch, every data point simulated by the experiment that
// plots it, nothing counted.
type runCtx struct {
	// Shared by every phase of one RunSuite call: the worker-slot
	// semaphore (nil = serial), the relation cache (imagecache.go) and the
	// data-point cache (shared.go).
	sem    chan struct{}
	rels   *relCache
	points *onceMap[pointKey, any]

	// The experiment, and the relations the phase declares: it may read no
	// other. built gives the phase's loads back once it has built its
	// machines (see RunSuite).
	exp   string
	reads []read
	built func()

	// Per phase: simulated events over every machine it built,
	// machine-build wall time (nanoseconds), image-cache lookups, Wisconsin
	// relations generated, and the points it was handed instead of
	// simulating.
	events, setup, imgHits, imgMisses, generated, sharedPts atomic.Int64
}

// slots returns the worker-slot semaphore, nil when the run is serial.
func (c *runCtx) slots() chan struct{} {
	if c == nil {
		return nil
	}
	return c.sem
}

// addSetup charges the time since start to the experiment's setup clock.
func (c *runCtx) addSetup(start time.Time) {
	if c != nil {
		c.setup.Add(int64(time.Since(start)))
	}
}

// newSim builds a simulator wired to the experiment's event counter.
func (o Options) newSim() *sim.Sim {
	s := sim.New()
	if o.run != nil {
		s.SetEventCounter(&o.run.events)
	}
	return s
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

// Cell is one measured value with an optional published reference.
type Cell struct {
	Measured   float64 `json:"measured"` // seconds (or unit of the table)
	Paper      float64 `json:"paper"`    // 0 = not published
	Extra      string  `json:"extra"`    // annotation such as an overflow count
	Unmeasured bool    `json:"-"`        // nothing ran for it: Render prints "-"
}

// Row is one labelled line of a result table.
type Row struct {
	Label string `json:"label"`
	Cells []Cell `json:"cells"`
}

// Table is one regenerated paper artifact: the one result an experiment
// reports. Render prints it and gammabench -json carries its rows.
type Table struct {
	ID      string
	Title   string
	Unit    string
	Columns []string
	Rows    []Row
	Notes   []string
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
			if c.Unmeasured {
				val = "-"
			}
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

// --- machine setup -------------------------------------------------------

// relSpec declares one relation of a machine: everything Load needs, as a
// comparable value so that, minus its name, it is part of an image-cache key.
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

// loadSpecRel applies one relSpec to a machine, loading the relation from
// the suite's relation cache (generated afresh without a run context).
func loadSpecRel(c *runCtx, m *core.Machine, rs relSpec) *core.Relation {
	spec := core.LoadSpec{Name: rs.name, Strategy: rs.strategy, PartAttr: rs.partAttr}
	if rs.indexed {
		u1 := rel.Unique1
		spec.ClusteredIndex = &u1
		spec.NonClusteredIndexes = []rel.Attr{rel.Unique2}
	}
	return m.Load(spec, c.tuples(rs.n, rs.seed))
}

// gammaMachine returns a Gamma machine on a fresh simulation holding the
// given relations, its wall time charged to the experiment's setup clock.
func (o Options) gammaMachine(nDisk, nDiskless int, specs []relSpec) *core.Machine {
	defer o.run.addSetup(time.Now())
	return o.run.gammaOn(o.newSim(), o.params(), nDisk, nDiskless, specs)
}

// gammaOn builds a Gamma machine on s and puts the relations on it in spec
// order: loaded from scratch without an image cache (the reference path),
// otherwise attached from the suite's relation images, each of which the
// first machine to need it builds by loading that one relation onto a
// throwaway machine of the same storage geometry. Both paths are
// byte-identical downstream: loading is free and eventless (the throwaway
// simulator never runs), a fresh machine starts at t=0 with cold buffer
// pools either way, and Attach allocates file ids exactly as Load does.
func (c *runCtx) gammaOn(s *sim.Sim, prm config.Params, nDisk, nDiskless int, specs []relSpec) *core.Machine {
	newMachine := func(s *sim.Sim, nDiskless int) *core.Machine {
		p := prm // private copy: the machine keeps the pointer
		return core.NewMachine(s, &p, nDisk, nDiskless)
	}
	m := newMachine(s, nDiskless)
	for _, rs := range specs {
		if c == nil {
			loadSpecRel(c, m, rs)
			continue
		}
		img := image(c, imageKey{nDisk: nDisk, prm: prm, rel: rs}, func() *core.RelationImage {
			return loadSpecRel(c, newMachine(sim.New(), 0), rs).Image()
		})
		if _, err := m.Attach(rs.name, img); err != nil {
			panic(err) // the key holds the geometry; a spec list naming a relation twice is a bug
		}
	}
	return m
}

// gammaSetup is one Gamma machine with the standard benchmark relations.
type gammaSetup struct {
	m *core.Machine
	// heap: no indices (the "nonindexed" rows). idx: clustered on
	// unique1, dense on unique2 (the indexed rows).
	heap *core.Relation
	idx  *core.Relation
}

// newGamma builds a Gamma machine with nDisk+nDiskless processors holding
// the standard benchmark database — the n-tuple relation in both physical
// versions, heap and fully indexed — plus any extra relations.
func newGamma(o Options, nDisk, nDiskless, n int, seed uint64, extras ...relSpec) *gammaSetup {
	heap, idx := heapRel("Aheap", n, seed), heapRel("Aidx", n, seed)
	idx.indexed = true
	g := &gammaSetup{m: o.gammaMachine(nDisk, nDiskless, append([]relSpec{heap, idx}, extras...))}
	g.heap, g.idx = g.rel("Aheap"), g.rel("Aidx")
	return g
}

// rel returns one of the machine's relations by name.
func (g *gammaSetup) rel(name string) *core.Relation {
	r, ok := g.m.Relation(name)
	if !ok {
		panic("bench: relation " + name + " missing from machine")
	}
	return r
}

// selectRun runs a selection and drops its result relation, so repeated
// queries don't accumulate state.
func (g *gammaSetup) selectRun(q core.SelectQuery) core.Result {
	res := g.m.RunSelect(q)
	if res.ResultName != "" {
		g.m.Drop(res.ResultName)
	}
	return res
}

// selectSecs is selectRun's simulated seconds.
func (g *gammaSetup) selectSecs(q core.SelectQuery) float64 {
	return g.selectRun(q).Elapsed.Seconds()
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
