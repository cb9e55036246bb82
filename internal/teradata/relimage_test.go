package teradata

import (
	"reflect"
	"strings"
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// imageOf loads tuples alone on a throwaway machine and images the relation.
func imageOf(key rel.Attr, tuples []rel.Tuple) *RelationImage {
	prm := config.Default()
	return NewMachine(sim.New(), &prm).Load("scratch", key, nil, tuples).Image()
}

func attach(t *testing.T, m *Machine, name string, secondary []rel.Attr, img *RelationImage) *Relation {
	t.Helper()
	r, err := m.Attach(name, secondary, img)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// liveTuples gathers a relation's live tuples AMP by AMP, at no simulated cost.
func liveTuples(r *Relation) []rel.Tuple {
	var out []rel.Tuple
	for _, fr := range r.Frags {
		for i := 0; i < fr.File.Pages(); i++ {
			out = fr.File.Page(i).LiveTuples(out)
		}
	}
	return out
}

// TestAttachIsolation: Table 3's updates on one attached machine are
// invisible to a sibling attached from the same image, to the same machine's
// other name for the relation, and to the image.
func TestAttachIsolation(t *testing.T) {
	const n = 3000
	img := imageOf(rel.Unique1, wisconsin.Generate(n, 1))
	build := func() (m *Machine, heap, idx *Relation) {
		prm := config.Default()
		m = NewMachine(sim.New(), &prm)
		return m, attach(t, m, "Aheap", nil, img), attach(t, m, "Aidx", []rel.Attr{rel.Unique2}, img)
	}
	inRange := rel.Between(rel.Unique2, 0, n/10-1)
	count := func(m *Machine, r *Relation) int { return m.RunSelect(r, inRange, FileScan, false).Tuples }

	writer, wHeap, wIdx := build()
	sibling, _, sIdx := build()
	before := liveTuples(sIdx)
	if got := count(sibling, sIdx); got != n/10 {
		t.Fatalf("10%% selection on the sibling returned %d tuples, want %d", got, n/10)
	}

	var fresh rel.Tuple
	fresh.Set(rel.Unique1, n+7)
	fresh.Set(rel.Unique2, 5) // inside the selected range
	for _, q := range []UpdateQuery{
		{Rel: wIdx, Kind: AppendTuple, Tuple: fresh},
		{Rel: wIdx, Kind: DeleteByKey, Key: before[0].Get(rel.Unique1)},
		{Rel: wIdx, Kind: ModifyIndexed, Key: 7, Attr: rel.Unique2, NewValue: n + 21}, // out of the range
		{Rel: wIdx, Kind: ModifyNonIndexed, Key: before[1].Get(rel.Unique1), Attr: rel.OddOnePercent, NewValue: 1},
	} {
		if res := writer.RunUpdate(q); res.Tuples != 1 {
			t.Fatalf("update kind %d changed %d tuples, want 1", q.Kind, res.Tuples)
		}
	}
	if reflect.DeepEqual(liveTuples(wIdx), before) {
		t.Fatal("the updates left the writer's relation unchanged: nothing was tested")
	}
	if got := count(sibling, sIdx); got != n/10 || !reflect.DeepEqual(liveTuples(sIdx), before) {
		t.Errorf("sibling machine saw the writer's updates: its selection now returns %d tuples", got)
	}
	if got := count(writer, wHeap); got != n/10 || !reflect.DeepEqual(liveTuples(wHeap), before) {
		t.Errorf("the writer's Aheap saw updates made to Aidx: its selection now returns %d tuples", got)
	}
	if _, _, later := build(); !reflect.DeepEqual(liveTuples(later), before) {
		t.Error("image dirtied by a machine attached from it")
	}
}

// TestAttachRejectsMismatch: an image goes only onto a machine with the AMP
// count it was built for, under a free name; the error names the relation and
// both geometries, and the machine is left as it was.
func TestAttachRejectsMismatch(t *testing.T) {
	tuples := wisconsin.Generate(500, 1)
	img := imageOf(rel.Unique1, tuples) // 20 AMPs
	for _, tc := range []struct {
		name string
		amps int
		as   string
		want []string
	}{
		{"fewer AMPs", 8, "A", []string{`"A"`, "built for 20 AMPs", "machine has 8"}},
		{"more AMPs", 40, "A", []string{`"A"`, "built for 20 AMPs", "machine has 40"}},
		{"name taken", 20, "B", []string{`"B"`, "20 AMPs", "already catalogues"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prm := config.Default()
			prm.Tera.AMPs = tc.amps
			m := NewMachine(sim.New(), &prm)
			b := m.Load("B", rel.Unique1, nil, tuples)
			r, err := m.Attach(tc.as, nil, img)
			if err == nil || r != nil {
				t.Fatalf("Attach returned (%v, %v), want an error", r, err)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %s", err, w)
				}
			}
			if got, _ := m.Relation("B"); got != b {
				t.Error("failed Attach replaced the catalogued relation")
			}
			if _, ok := m.Relation("A"); ok {
				t.Error("failed Attach catalogued the relation")
			}
			for _, nd := range m.AMPs {
				if files := m.stores[nd.ID].Files(); files != 1 {
					t.Errorf("AMP %d holds %d files after a failed Attach, want 1", nd.ID, files)
				}
			}
		})
	}
}
