package bench

import (
	"fmt"
	"runtime"
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

// weakRelations takes a weak pointer to every image and generated relation c
// holds and returns how many of them are still reachable. An entry still
// being built is skipped.
func weakRelations(c *relCache) func() (alive, total int) {
	var live []func() bool
	c.images.mu.Lock()
	for _, e := range c.images.entries {
		switch img := e.val.(type) {
		case *core.RelationImage:
			live = append(live, reachable(img))
		case *teradata.RelationImage:
			live = append(live, reachable(img))
		}
	}
	c.images.mu.Unlock()
	c.tuples.mu.Lock()
	for _, e := range c.tuples.entries {
		if len(e.val) > 0 {
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
// is reachable, or gives up after a second: an experiment's goroutine may
// still be unwinding when the next one asks.
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

// TestRelationsDieWithTheirExperiment pins the relation caches' lifetimes. An
// experiment that owns its relations leaves none of its images or generated
// relations reachable once it has returned, while the relations in the
// suite's cache stay reachable until RunSuite returns. A later experiment of
// the same suite looks, serially and on two workers.
func TestRelationsDieWithTheirExperiment(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var suite func() (alive, total int)
		suiteDone := make(chan struct{})
		exps := []Experiment{{ID: "suite", Run: func(o Options) *Table {
			useRelations(o, 1)
			suite = weakRelations(o.run.rels)
			close(suiteDone)
			return &Table{}
		}}}
		// One slot per experiment that owns its relations, each written by
		// that experiment before it closes its done channel.
		type owner struct {
			id    string
			count func() (alive, total int)
			done  chan struct{}
		}
		var owners []*owner
		for seed := uint64(2); seed <= 3; seed++ {
			w := &owner{id: fmt.Sprintf("own%d", seed), done: make(chan struct{})}
			owners = append(owners, w)
			exps = append(exps, Experiment{ID: w.id, ownRelations: true, Run: func(o Options) *Table {
				useRelations(o, seed)
				w.count = weakRelations(o.run.rels)
				close(w.done)
				return &Table{}
			}})
		}
		exps = append(exps, Experiment{ID: "probe", Run: func(Options) *Table {
			<-suiteDone
			for _, w := range owners {
				<-w.done
				if _, total := w.count(); total != 3 {
					t.Errorf("workers=%d: %s's cache holds %d relations, want a generated one and its two images", workers, w.id, total)
				}
				if !collectedWithin(w.count) {
					alive, total := w.count()
					t.Errorf("workers=%d: %d of %s's %d relations still reachable after it returned", workers, alive, w.id, total)
				}
			}
			runtime.GC()
			if alive, total := suite(); total != 3 || alive != total {
				t.Errorf("workers=%d: %d of the suite cache's %d relations reachable while the suite runs, want all 3", workers, alive, total)
			}
			return &Table{}
		}})
		RunSuite(exps, tinyOptions(), workers)
		if !collectedWithin(suite) {
			alive, total := suite()
			t.Errorf("workers=%d: %d of the suite cache's %d relations still reachable after RunSuite returned", workers, alive, total)
		}
	}
}
