package core_test

// Relation-image acceptance tests: a machine whose relations were attached
// from images must be indistinguishable — storage layout, results, event
// counts and traces — from a machine that loaded the same relations in the
// same order, and machines sharing an image must not see each other's writes.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

const attachTuples = 2000

var (
	attachA      = wisconsin.Generate(attachTuples, 1)
	attachBprime = wisconsin.Generate(attachTuples/10, 7)
	bprimeSpec   = core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1}
)

// attachCases are the storage shapes Attach must reproduce: the A relation of
// each, beside a heap Bprime so that ids are allocated past a first relation.
var attachCases = []struct {
	name     string
	mirrored bool
	spec     core.LoadSpec
}{
	{"heap", false, core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1}},
	{"indexed", false, indexedSpec(core.Hashed)},
	{"mirrored", true, indexedSpec(core.Hashed)},
	{"range-uniform", false, indexedSpec(core.RangeUniform)},
}

func indexedSpec(s core.PartStrategy) core.LoadSpec {
	u1 := rel.Unique1
	return core.LoadSpec{Name: "A", Strategy: s, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2}}
}

func emptyMachine(k int, mirrored bool) *core.Machine {
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, k, k)
	if mirrored {
		m.EnableMirroring()
	}
	return m
}

// loadedMachine holds Bprime then A, both loaded in place.
func loadedMachine(k int, mirrored bool, spec core.LoadSpec) *core.Machine {
	m := emptyMachine(k, mirrored)
	m.Load(bprimeSpec, attachBprime)
	m.Load(spec, attachA)
	return m
}

// imagesOf loads each relation alone on a throwaway machine and images it.
func imagesOf(k int, mirrored bool, spec core.LoadSpec) (bprime, a *core.RelationImage) {
	return emptyMachine(k, mirrored).Load(bprimeSpec, attachBprime).Image(),
		emptyMachine(k, mirrored).Load(spec, attachA).Image()
}

// attachBoth attaches Bprime then A to an empty machine.
func attachBoth(m *core.Machine, bprime, a *core.RelationImage) error {
	if _, err := m.Attach("Bprime", bprime); err != nil {
		return err
	}
	_, err := m.Attach("A", a)
	return err
}

// attachedMachine holds Bprime then A, both attached.
func attachedMachine(t *testing.T, k int, mirrored bool, bprime, a *core.RelationImage) *core.Machine {
	t.Helper()
	m := emptyMachine(k, mirrored)
	if err := attachBoth(m, bprime, a); err != nil {
		t.Fatal(err)
	}
	return m
}

// layout renders where everything is stored: per relation and fragment the
// node, file id, name and size, each index's file id and size, and per disk
// node how many files its store holds.
func layout(m *core.Machine) string {
	var b strings.Builder
	for _, name := range m.Relations() {
		r, _ := m.Relation(name)
		fmt.Fprintf(&b, "%s n=%d %v on %v bounds=%v\n", r.Name, r.N, r.Strategy, r.PartAttr, r.Bounds)
		for _, set := range [][]*core.Fragment{r.Frags, r.Backups} {
			for i, fr := range set {
				fmt.Fprintf(&b, "  %d: node %d file %d %q pages=%d tuples=%d sorted=%v",
					i, fr.Node.ID, fr.File.ID, fr.File.Name, fr.File.Pages(), fr.File.Len(), fr.File.Sorted)
				attrs := make([]rel.Attr, 0, len(fr.Indexes))
				for a := range fr.Indexes {
					attrs = append(attrs, a)
				}
				slices.Sort(attrs)
				for _, a := range attrs {
					bt := fr.Indexes[a]
					fmt.Fprintf(&b, " idx(%v %v file %d entries=%d height=%d)", a, bt.Kind, bt.FileID(), bt.Entries(), bt.Height())
				}
				b.WriteByte('\n')
			}
		}
	}
	for _, nd := range m.Disk {
		fmt.Fprintf(&b, "node %d holds %d files\n", nd.ID, m.StoreOf(nd).Files())
	}
	return b.String()
}

// nextIDs is the id each disk node's store hands out next (and so spends).
func nextIDs(m *core.Machine) []int {
	var ids []int
	for _, nd := range m.Disk {
		probe := m.StoreOf(nd).CreateFile("probe")
		ids = append(ids, probe.ID)
		m.StoreOf(nd).DropFile(probe)
	}
	return ids
}

// attachWorkload runs one selection, one joinABprime and one update of each
// kind with tracing on, and renders every outcome plus the event count and
// the trace's sha256.
func attachWorkload(t *testing.T, m *core.Machine) string {
	t.Helper()
	col := m.EnableTrace()
	a, _ := m.Relation("A")
	b, _ := m.Relation("Bprime")
	var fresh rel.Tuple
	fresh.Set(rel.Unique1, attachTuples+7)
	fresh.Set(rel.Unique2, attachTuples+7)
	results := []core.Result{
		m.RunSelect(core.SelectQuery{
			Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, attachTuples/10-1), Path: core.PathHeap},
		}),
		m.RunJoin(core.JoinQuery{
			Build: core.ScanSpec{Rel: b, Pred: rel.True()}, BuildAttr: rel.Unique2,
			Probe: core.ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
			Mode: core.Remote,
		}),
		m.RunUpdate(core.UpdateQuery{Rel: a, Kind: core.AppendTuple, Tuple: fresh}),
		m.RunUpdate(core.UpdateQuery{Rel: a, Kind: core.DeleteByKey, Key: attachTuples + 7}),
		m.RunUpdate(core.UpdateQuery{Rel: a, Kind: core.ModifyKeyAttr, Key: attachTuples / 3, Attr: rel.Unique1, NewValue: attachTuples + 13}),
		m.RunUpdate(core.UpdateQuery{Rel: a, Kind: core.ModifyNonIndexed, Key: attachTuples / 4, Attr: rel.OddOnePercent, NewValue: 1}),
		m.RunUpdate(core.UpdateQuery{Rel: a, Kind: core.ModifyIndexed, Key: attachTuples / 5, Attr: rel.Unique2, NewValue: attachTuples + 21}),
	}
	var out strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("query failed: %v", r.Err)
		}
		fmt.Fprintf(&out, "tuples=%d elapsed=%v\n", r.Tuples, r.Elapsed)
	}
	var trace bytes.Buffer
	if err := col.WriteJSONL(&trace); err != nil {
		t.Fatalf("trace: %v", err)
	}
	fmt.Fprintf(&out, "executed=%d trace=%x\n", m.Sim.Executed(), sha256.Sum256(trace.Bytes()))
	return out.String()
}

// TestAttachMatchesLoad: on 1, 3 and 8 disk nodes and for every storage
// shape, an attached machine has the loaded machine's layout to the file id
// and behaves identically under reads and writes.
func TestAttachMatchesLoad(t *testing.T) {
	for _, tc := range attachCases {
		for _, k := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, k), func(t *testing.T) {
				loaded := loadedMachine(k, tc.mirrored, tc.spec)
				bprime, a := imagesOf(k, tc.mirrored, tc.spec)
				attached := attachedMachine(t, k, tc.mirrored, bprime, a)
				if got, want := layout(attached), layout(loaded); got != want {
					t.Fatalf("attached layout differs from loaded:\n--- attached ---\n%s--- loaded ---\n%s", got, want)
				}
				if got, want := nextIDs(attached), nextIDs(loaded); !slices.Equal(got, want) {
					t.Fatalf("attached stores allocate ids %v next, loaded ones %v", got, want)
				}
				if got, want := attachWorkload(t, attached), attachWorkload(t, loaded); got != want {
					t.Errorf("attached machine behaves differently:\n--- attached ---\n%s--- loaded ---\n%s", got, want)
				}
				if attached.COWClones() == 0 {
					t.Error("updates on an attached machine cloned no shared page")
				}
			})
		}
	}
}

// TestAttachIsolation is the copy-on-write contract: of two machines attached
// from one image, the writer clones what it writes and the sibling — and the
// image, as a third machine attached afterwards sees it — keep every tuple.
func TestAttachIsolation(t *testing.T) {
	tc := attachCases[1]
	bprime, a := imagesOf(4, false, tc.spec)
	writer := attachedMachine(t, 4, false, bprime, a)
	sibling := attachedMachine(t, 4, false, bprime, a)
	relA := func(m *core.Machine) *core.Relation { r, _ := m.Relation("A"); return r }
	before := relA(sibling).AllTuples()
	attachWorkload(t, writer)
	if writer.COWClones() == 0 {
		t.Error("writer cloned no page")
	}
	if reflect.DeepEqual(relA(writer).AllTuples(), before) {
		t.Error("the updates left the writer's tuples unchanged: nothing was tested")
	}
	if sibling.COWClones() != 0 || !reflect.DeepEqual(relA(sibling).AllTuples(), before) {
		t.Errorf("sibling saw the writer's updates (%d clones of its own)", sibling.COWClones())
	}
	later := attachedMachine(t, 4, false, bprime, a)
	if !reflect.DeepEqual(relA(later).AllTuples(), before) {
		t.Error("image dirtied by a machine attached from it")
	}
	if got, want := attachWorkload(t, later), attachWorkload(t, loadedMachine(4, false, tc.spec)); got != want {
		t.Errorf("machine attached after a sibling's writes differs from a loaded one:\n%s--- loaded ---\n%s", got, want)
	}
}

// TestConcurrentAttaches has many goroutines attach, query and dirty the same
// images at once (run under -race): frozen pages and shared index graphs
// must tolerate concurrent readers while every writer clones privately.
func TestConcurrentAttaches(t *testing.T) {
	tc := attachCases[2]
	bprime, a := imagesOf(4, tc.mirrored, tc.spec)
	want := attachWorkload(t, loadedMachine(4, tc.mirrored, tc.spec))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := emptyMachine(4, tc.mirrored)
			if err := attachBoth(m, bprime, a); err != nil {
				t.Error(err)
				return
			}
			if got := attachWorkload(t, m); got != want {
				t.Errorf("concurrent attach behaves differently:\n%s--- loaded ---\n%s", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestAttachRejectsMismatch: an image goes only onto the geometry it was built
// for, under a free name; the error names the relation and both geometries,
// and the machine is left as it was.
func TestAttachRejectsMismatch(t *testing.T) {
	image := func(k int, mirrored bool) *core.RelationImage {
		_, a := imagesOf(k, mirrored, attachCases[1].spec)
		return a
	}
	for _, tc := range []struct {
		name     string
		img      *core.RelationImage
		k        int
		mirrored bool
		as       string
		want     []string
	}{
		{"fewer sites", image(3, false), 4, false, "A", []string{`"A"`, "3 unmirrored disk sites", "4 unmirrored disk sites"}},
		{"more sites", image(8, false), 1, false, "A", []string{`"A"`, "8 unmirrored disk sites", "1 unmirrored disk sites"}},
		{"mirrored onto unmirrored", image(4, true), 4, false, "A", []string{`"A"`, "4 mirrored disk sites", "4 unmirrored disk sites"}},
		{"unmirrored onto mirrored", image(4, false), 4, true, "A", []string{`"A"`, "4 unmirrored disk sites", "4 mirrored disk sites"}},
		{"name taken", image(4, false), 4, false, "Bprime", []string{`"Bprime"`, "4 unmirrored disk sites", "already catalogues"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := emptyMachine(tc.k, tc.mirrored)
			m.Load(bprimeSpec, attachBprime)
			before := layout(m)
			r, err := m.Attach(tc.as, tc.img)
			if err == nil || r != nil {
				t.Fatalf("Attach returned (%v, %v), want an error", r, err)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %s", err, w)
				}
			}
			if after := layout(m); after != before {
				t.Errorf("failed Attach changed the machine:\n%s--- before ---\n%s", after, before)
			}
		})
	}
}
