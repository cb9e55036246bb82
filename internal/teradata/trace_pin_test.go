package teradata

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// TestTracePins holds the Teradata model's per-tuple itineraries to the event
// stream they produced when every stage parked its process: the sha256 of the
// JSONL trace, the retired-event count and the response time of queries that
// cover redistribution, the merge pass and INSERT INTO. The values were recorded at the commit before the itineraries
// moved into the kernel (Proc.Steps); they change only if a stage reserves at
// another instant or in another order.
func TestTracePins(t *testing.T) {
	type outcome struct {
		sha      string
		executed uint64
		elapsed  sim.Dur
		tuples   int
	}
	// attached builds the machine from relation images instead of loading it
	// in place; the pins do not tell the two apart. twice also attaches A's
	// image under a second name, as a suite's machines hold it.
	run := func(attached, twice bool, query func(m *Machine, a, b, c *Relation) Result) outcome {
		s := sim.New()
		col := trace.NewCollector()
		s.SetSink(col)
		prm := config.Default()
		m := NewMachine(s, &prm)
		place := m.Load
		if attached {
			place = func(name string, key rel.Attr, secondary []rel.Attr, tuples []rel.Tuple) *Relation {
				return attach(t, m, name, secondary, imageOf(key, tuples))
			}
		}
		a := place("A", rel.Unique1, []rel.Attr{rel.Unique2}, wisconsin.Generate(3000, 1))
		b := place("Bprime", rel.Unique1, nil, wisconsin.Generate(300, 7))
		c := place("C", rel.Unique1, nil, wisconsin.Generate(300, 22))
		if twice {
			attach(t, m, "Aheap", nil, a.Image())
		}
		res := query(m, a, b, c)
		h := sha256.New()
		if err := col.WriteJSONL(h); err != nil {
			t.Fatal(err)
		}
		return outcome{hex.EncodeToString(h.Sum(nil)), s.Executed(), res.Elapsed, res.Tuples}
	}
	joinABprime := func(m *Machine, a, b, _ *Relation) Result {
		return m.RunJoin(JoinQuery{
			R1: a, Pred1: rel.True(), Attr1: rel.Unique2,
			R2: b, Pred2: rel.True(), Attr2: rel.Unique2,
		})
	}
	joinCselAselB := func(m *Machine, a, b, c *Relation) Result {
		sel := rel.Between(rel.Unique2, 0, 299)
		return m.RunJoin(JoinQuery{
			R1: a, Pred1: sel, Attr1: rel.Unique2,
			R2: b, Pred2: rel.True(), Attr2: rel.Unique2,
			R3: c, Pred3: rel.True(), Attr3: rel.Unique2, AttrI: rel.Unique2,
		})
	}
	selectInto := func(m *Machine, a, _, _ *Relation) Result {
		return m.RunSelect(a, rel.Between(rel.Unique2, 0, 299), FileScan, false)
	}
	indexSelectInto := func(m *Machine, a, _, _ *Relation) Result {
		return m.RunSelect(a, rel.Between(rel.Unique2, 0, 299), IndexScan, false)
	}
	// join: the query spools to temporary files, whose ids — they follow the
	// relations' — are in its trace; only the others can hold a fourth
	// relation and keep their pin.
	for _, tc := range []struct {
		name  string
		join  bool
		query func(m *Machine, a, b, c *Relation) Result
		want  outcome
	}{
		{"joinABprime", true, joinABprime, outcome{"f82942aace8eeb94ebccf77edaecb842d1fb8b4c208749e5b32d8cdc87009376", 19446, 12315517, 300}},
		{"joinCselAselB", true, joinCselAselB, outcome{"f8f3d6cb21a1d2fef802aa2a0a787840a5892a19108d032c4d24de25285df4cc", 9132, 9321137, 300}},
		{"select-into", false, selectInto, outcome{"e9e3b433f651db5d5a62c541c174410c2fd7b9e72d6ae3d5cf700089126efdab", 1546, 5781289, 300}},
		{"index-select-into", false, indexSelectInto, outcome{"f21ffa255cced4e10f5e19b41c1b3680d4bc03fe43439d4f2a63f36e31678748", 1563, 6438689, 300}},
	} {
		if got := run(false, false, tc.query); got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		if got := run(true, !tc.join, tc.query); got != tc.want {
			t.Errorf("%s on attached relations: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
