package bench

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/teradata"
)

// reachable reports, through a weak pointer, whether p is still reachable.
func reachable[T any](p *T) func() bool {
	w := weak.Make(p)
	return func() bool { return w.Value() != nil }
}

// weakRelation takes a weak pointer to the generated relation k that c holds
// and to every image c holds built from it, and returns how many of them are
// still reachable.
func weakRelation(c *relCache, k genKey) func() (alive, total int) {
	return weakCached(c, func(g genKey) bool { return g == k }, func(ik imageKey) bool { return ik.version().genKey == k })
}

// weakCached takes a weak pointer to every generated relation and every image
// c holds whose key matches, and returns how many of them are still
// reachable.
func weakCached(c *relCache, rows func(genKey) bool, images func(imageKey) bool) func() (alive, total int) {
	var live []func() bool
	c.images.mu.Lock()
	for ik, e := range c.images.entries {
		if !images(ik) {
			continue
		}
		switch img := e.val.(type) {
		case *core.RelationImage:
			live = append(live, reachable(img))
		case *teradata.RelationImage:
			live = append(live, reachable(img))
		}
	}
	c.images.mu.Unlock()
	c.tuples.mu.Lock()
	for k, e := range c.tuples.entries {
		if rows(k) && len(e.val) > 0 {
			live = append(live, reachable(&e.val[0]))
		}
	}
	c.tuples.mu.Unlock()
	return func() (alive, total int) {
		for _, l := range live {
			if l() {
				alive++
			}
		}
		return alive, len(live)
	}
}

// collectedWithin collects garbage until none of the relations count reports
// is reachable, or gives up after a second: the suite frees a relation only
// after its last reader's Run has returned.
func collectedWithin(count func() (alive, total int)) bool {
	for range 100 {
		runtime.GC()
		if alive, _ := count(); alive == 0 {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// useRelations does what an experiment does with the seed's relations:
// builds a Gamma and a Teradata machine holding them and runs a selection on
// each.
func useRelations(o Options, seed uint64) {
	g := &gammaSetup{m: o.gammaMachine(2, 0, false, []relSpec{heapRel("R", 500, seed)})}
	g.selectSecs(heapSel(10).of(g.rel("R"), 500))
	teraSelection(false, 10, teradata.FileScan)(newTera(o, 500, seed))
}

// declares returns a reads column declaring keys as loads.
func declares(keys ...genKey) func(Options) []read {
	return func(Options) []read { return loads(keys...) }
}

// TestRelationsDieWithTheirExperiment pins the relation cache's lifetime
// rule: a relation lives until the last phase of the run that declares it
// returns, here the last experiment, each being one phase. E1 reads k1 and
// k2, E2 reads k2. Once E1 has returned, k1 (its
// generated relation and both images) is unreachable while k2 is not; once
// E2 has returned, k2 is unreachable too. Later probe experiments of the same
// suite look, serially and on two workers.
func TestRelationsDieWithTheirExperiment(t *testing.T) {
	k1, k2 := genKey{500, 2}, genKey{500, 3}
	for _, workers := range []int{1, 2} {
		var only1, shared func() (alive, total int)
		e1Done, probed, e2Done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		exps := []Experiment{
			{ID: "E1", reads: declares(k1, k2), Run: func(o Options) *Table {
				useRelations(o, k1.seed)
				useRelations(o, k2.seed)
				only1, shared = weakRelation(o.run.rels, k1), weakRelation(o.run.rels, k2)
				close(e1Done)
				return &Table{}
			}},
			{ID: "probe1", Run: func(Options) *Table {
				defer close(probed)
				<-e1Done
				if _, total := only1(); total != 3 {
					t.Errorf("workers=%d: k1 is %d relations, want a generated one and its two images", workers, total)
				}
				if !collectedWithin(only1) {
					alive, total := only1()
					t.Errorf("workers=%d: %d of k1's %d relations reachable after its last reader returned", workers, alive, total)
				}
				runtime.GC()
				if alive, total := shared(); total != 3 || alive != total {
					t.Errorf("workers=%d: %d of k2's %d relations reachable while E2 may still read them, want all 3", workers, alive, total)
				}
				return &Table{}
			}},
			{ID: "E2", reads: declares(k2), Run: func(o Options) *Table {
				<-probed // on two workers E2 runs beside probe1 and must not return first
				useRelations(o, k2.seed)
				close(e2Done)
				return &Table{}
			}},
			{ID: "probe2", Run: func(Options) *Table {
				<-e2Done
				if !collectedWithin(shared) {
					alive, total := shared()
					t.Errorf("workers=%d: %d of k2's %d relations reachable after its last reader returned", workers, alive, total)
				}
				return &Table{}
			}},
		}
		RunSuite(exps, tinyOptions(), workers)
	}
}

// TestTableSizeFreedBeforeNext: a serial suite of Tables 1-3 at two sizes
// runs each table once per size, and no relation of the first size — no
// generated relation, no image built from one — is reachable when the first
// phase of the second size starts.
func TestTableSizeFreedBeforeNext(t *testing.T) {
	o := tinyOptions()
	first, second := o.Sizes[0], 2*o.Sizes[0]
	o.Sizes = []int{first, second}
	var weaks []func() (alive, total int)
	firstSize := func() (alive, total int) {
		for _, w := range weaks {
			a, n := w()
			alive, total = alive+a, total+n
		}
		return alive, total
	}
	calls, checked := 0, false
	var exps []Experiment
	for _, id := range []string{"table1", "table2", "table3"} {
		e, _ := Lookup(id)
		run := e.Run
		e.Run = func(o Options) *Table {
			calls++
			if len(o.Sizes) != 1 {
				t.Errorf("%s ran at sizes %v at once, want one size a call", id, o.Sizes)
			} else if o.Sizes[0] == second && !checked {
				checked = true
				if _, total := firstSize(); total == 0 {
					t.Errorf("%s at %d ran before any relation of size %d was built", id, second, first)
				}
				if !collectedWithin(firstSize) {
					alive, total := firstSize()
					t.Errorf("%s at %d started with %d of the %d relations of size %d reachable", id, second, alive, total, first)
				}
			}
			tbl := run(o)
			if slices.Equal(o.Sizes, []int{first}) {
				for _, r := range e.reads(o) {
					weaks = append(weaks, weakRelation(o.run.rels, r.genKey))
				}
			}
			return tbl
		}
		exps = append(exps, e)
	}
	RunSuite(exps, o, 1)
	if want := len(exps) * len(o.Sizes); calls != want || !checked {
		t.Errorf("%d Run calls, second size reached %v; want %d calls, one per table and size", calls, checked, want)
	}
}

// TestTable2HoldsWhatItReads: in a serial suite of Tables 1-3 at two sizes,
// when table2's first query runs at a size, nothing it does not read is
// reachable — not A's rows, from which table1 built every image of A, not
// Gamma's indexed A, which table3 was the last to read, and not table2's own
// rows, from which it has built its machines — while A's heap on either
// machine, which its joins read, is.
func TestTable2HoldsWhatItReads(t *testing.T) {
	o := tinyOptions()
	o.Sizes = []int{o.Sizes[0], 2 * o.Sizes[0]}
	type weak = func() (alive, total int)
	var dead, live map[string]weak // of the size in progress
	checked := 0
	var exps []Experiment
	for _, id := range []string{"table1", "table2", "table3"} {
		e, _ := Lookup(id)
		run := e.Run
		e.Run = func(o Options) *Table {
			n, c := o.Sizes[0], o.run.rels
			a := relA(n)
			built := o.run.built
			switch id {
			case "table1":
				o.run.built = sync.OnceFunc(func() {
					dead = map[string]weak{
						"A's rows": weakCached(c, func(k genKey) bool { return k == a }, func(imageKey) bool { return false }),
						"Gamma's indexed A": weakCached(c, func(genKey) bool { return false }, func(k imageKey) bool {
							return k.version() == version{a, true}
						}),
					}
					live = map[string]weak{
						"Gamma's A heap": weakCached(c, func(genKey) bool { return false }, func(k imageKey) bool {
							return !k.tera && k.version() == version{genKey: a}
						}),
						"Teradata's A": weakCached(c, func(genKey) bool { return false }, func(k imageKey) bool {
							return k.tera && k.version().genKey == a
						}),
					}
					built()
				})
			case "table2":
				o.run.built = sync.OnceFunc(func() {
					dead["table2's rows"] = weakCached(c, func(k genKey) bool {
						return k == relBprime(n) || k == relB(n) || k == relC(n)
					}, func(imageKey) bool { return false })
					built()
					checked++
					if ev := o.run.events.Load(); ev != 0 {
						t.Errorf("size %d: table2 gave its loads back after %d simulated events, want before its first query", n, ev)
					}
					for what, w := range dead {
						if _, total := w(); total == 0 {
							t.Errorf("size %d: %s never cached", n, what)
						}
						if !collectedWithin(w) {
							t.Errorf("size %d: %s reachable when table2's first query runs", n, what)
						}
					}
					runtime.GC()
					for what, w := range live {
						if alive, total := w(); total != 1 || alive != 1 {
							t.Errorf("size %d: %d of %d images of %s reachable when table2's first query runs, want 1 of 1", n, alive, total, what)
						}
					}
				})
			}
			return run(o)
		}
		exps = append(exps, e)
	}
	RunSuite(exps, o, 1)
	if checked != len(o.Sizes) {
		t.Errorf("table2 reached its first query at %d sizes, want %d", checked, len(o.Sizes))
	}
}

// TestUndeclaredReadFails: an experiment that reads a relation it does not
// declare — through a machine's image, the generated relation itself, or a
// version of a relation of which it declares another — fails and names itself
// and the relation. An attach-only miss is not such a read: the experiment
// reads what it declares, from rows generated for it and not kept.
func TestUndeclaredReadFails(t *testing.T) {
	indexed := func(o Options) {
		rs := relSpec{name: "R", n: 500, seed: 2, strategy: core.Hashed, partAttr: rel.Unique1, indexed: true}
		o.gammaMachine(2, 0, false, []relSpec{rs})
	}
	for name, tc := range map[string]struct {
		read func(o Options)
		want string // "" when the read must succeed
	}{
		"image":            {func(o Options) { useRelations(o, 3) }, "reads relation (n=500, seed=3, indexed=false)"},
		"tuples":           {func(o Options) { o.run.tuples(500, 3) }, "reads relation (n=500, seed=3, indexed=false)"},
		"indexed version":  {indexed, "reads relation (n=500, seed=2, indexed=true)"},
		"attach-only miss": {func(o Options) { useRelations(o, 2) }, ""},
	} {
		exp := Experiment{ID: "sneaky-" + name, Run: func(o Options) *Table {
			tc.read(o)
			if n := len(heldKeys(o.run.rels.tuples)); n != 0 {
				t.Errorf("%s: the cache kept %d generated relations that no load declares", name, n)
			}
			return &Table{}
		}}
		exp.reads = func(Options) []read { return []read{{version: version{genKey: genKey{500, 2}}, attach: true}} }
		func() {
			defer func() {
				r := recover()
				if msg := fmt.Sprint(r); tc.want == "" && r != nil {
					t.Errorf("%s: failed with %q", exp.ID, msg)
				} else if tc.want != "" && (r == nil || !strings.Contains(msg, exp.ID) || !strings.Contains(msg, tc.want)) {
					t.Errorf("%s: undeclared read failed with %v, want the experiment and %q named", exp.ID, r, tc.want)
				}
			}()
			rep := RunSuite([]Experiment{exp}, tinyOptions(), 1)
			if tc.want == "" && rep[0].Generated != 2 {
				t.Errorf("%s: generated %d relations, want one for each machine's miss", exp.ID, rep[0].Generated)
			}
		}()
	}
}
