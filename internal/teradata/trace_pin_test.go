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
// cover redistribution, the merge pass and INSERT INTO. The values were
// recorded at the commit before the itineraries moved into the kernel
// (Proc.Steps); they change only if a stage reserves at another instant or in
// another order. The hashes were re-recorded once since, when a reservation
// became one service event instead of an acquire/release pair: folding each
// adjacent pair of the old traces into one service record gave the new
// traces byte for byte, and the executed counts, elapsed times and tuple
// counts did not move.
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
		{"joinABprime", true, joinABprime, outcome{"7f8d235b9f5abbf52f67a2acd7c7ed46742fb18b4869ab7dd52865984e62df96", 19446, 12315517, 300}},
		{"joinCselAselB", true, joinCselAselB, outcome{"bb305f7076b980e77232712d784341e2f9dd7b9362f2f36c5be8afc34b5d1028", 9132, 9321137, 300}},
		{"select-into", false, selectInto, outcome{"1ee5b3a430efe026ece47a6929d18f641b05cc3cf4d7683879496620bef21a26", 1546, 5781289, 300}},
		{"index-select-into", false, indexSelectInto, outcome{"4a1a6949e8d14976c80021aff76746c72af401fee3ee57f3dc0471151b76f337", 1563, 6438689, 300}},
	} {
		if got := run(false, false, tc.query); got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		if got := run(true, !tc.join, tc.query); got != tc.want {
			t.Errorf("%s on attached relations: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
