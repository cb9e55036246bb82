package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"gamma/internal/core"
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
	var live []func() bool
	c.images.mu.Lock()
	for ik, e := range c.images.entries {
		if ik.rel.n != k.n || ik.rel.seed != k.seed {
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
	if e, ok := c.tuples.entries[k]; ok && len(e.val) > 0 {
		live = append(live, reachable(&e.val[0]))
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

// declares returns a reads column declaring keys.
func declares(keys ...genKey) func(Options) []genKey {
	return func(Options) []genKey { return keys }
}

// TestRelationsDieWithTheirExperiment pins the relation cache's lifetime
// rule: a relation lives until the last experiment of the run that declares
// it returns. E1 reads k1 and k2, E2 reads k2. Once E1 has returned, k1 (its
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

// TestUndeclaredReadFails: an experiment that reads a relation it does not
// declare, through a machine's image or the generated relation itself, fails
// and names itself and the relation.
func TestUndeclaredReadFails(t *testing.T) {
	for name, read := range map[string]func(o Options){
		"image":  func(o Options) { useRelations(o, 3) },
		"tuples": func(o Options) { o.run.tuples(500, 3) },
	} {
		exp := Experiment{ID: "sneaky-" + name, reads: declares(genKey{500, 2}), Run: func(o Options) *Table {
			read(o)
			return &Table{}
		}}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: an undeclared read did not fail", exp.ID)
					return
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, exp.ID) || !strings.Contains(msg, "(n=500, seed=3)") {
					t.Errorf("%s: undeclared read failed with %q, want the experiment and (n=500, seed=3) named", exp.ID, msg)
				}
			}()
			RunSuite([]Experiment{exp}, tinyOptions(), 1)
		}()
	}
}
