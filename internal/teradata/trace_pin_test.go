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
// counts did not move. They were re-recorded a second time when a Teradata
// query became one query span and each AMP step one op span: deleting the
// query-start, query-done, op-start and op-done records from the new traces
// gave the old ones byte for byte, and again nothing else moved.
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
		{"joinABprime", true, joinABprime, outcome{"0126cfab25e0e6bfa77dc50808c750c49719af77089875f255d60134e7370ca7", 19446, 12315517, 300}},
		{"joinCselAselB", true, joinCselAselB, outcome{"3506cc389728956e64df47cad077b577262572132143d89cad9b6b0d3942e48e", 9132, 9321137, 300}},
		{"select-into", false, selectInto, outcome{"831313ac6ef3aa3f0ef8e748b5679e60976d484a1aa0372f906f5258d42cbbe8", 1546, 5781289, 300}},
		{"index-select-into", false, indexSelectInto, outcome{"aaf2fc9b60b71b92efa0dbf0c0338f111b041fad4024bb9c543c0e5144216265", 1563, 6438689, 300}},
	} {
		if got := run(false, false, tc.query); got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		if got := run(true, !tc.join, tc.query); got != tc.want {
			t.Errorf("%s on attached relations: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
