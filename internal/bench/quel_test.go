package bench

import (
	"maps"
	"testing"

	"gamma/internal/core"
	"gamma/internal/quel"
	"gamma/internal/rel"
)

// quelRow is one Gamma row of Tables 1-3 two ways: the core query the bench
// runs, and the QUEL text that says the same.
type quelRow struct {
	label string
	run   func(g *gammaSetup) core.Result
	text  string
}

// multiset is the multiset of tuples relation name holds on m.
func multiset(m *core.Machine, name string) map[rel.Tuple]int {
	ms := map[rel.Tuple]int{}
	r, _ := m.Relation(name)
	for _, tu := range r.AllTuples() {
		ms[tu]++
	}
	return ms
}

// checkTwoWays runs rows, in order, on two identically built machines: the
// core queries on one, the QUEL text on the other after the prelude binds
// its range variables. Each row must store or return the same tuples in the
// same simulated time, and every preloaded relation must end up the same.
func checkTwoWays(t *testing.T, build func() *gammaSetup, prelude []string, rows []quelRow) {
	t.Helper()
	viaCore, viaQUEL := build(), build()
	ses := quel.NewSession(viaQUEL.m)
	for _, stmt := range prelude {
		if _, err := ses.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	preloaded := viaCore.m.Relations()
	for _, r := range rows {
		want := r.run(viaCore)
		out, err := ses.Exec(r.text)
		if err != nil {
			t.Errorf("%s: %q: %v", r.label, r.text, err)
			continue
		}
		got := out.Result
		if got.Tuples != want.Tuples || got.Elapsed != want.Elapsed {
			t.Errorf("%s: %q gives %d tuples in %v, the core query %d in %v",
				r.label, r.text, got.Tuples, got.Elapsed, want.Tuples, want.Elapsed)
		}
		if want.ResultName != "" {
			if !maps.Equal(multiset(viaQUEL.m, got.ResultName), multiset(viaCore.m, want.ResultName)) {
				t.Errorf("%s: %q stores other tuples than the core query", r.label, r.text)
			}
			viaCore.m.Drop(want.ResultName)
			viaQUEL.m.Drop(got.ResultName)
		}
	}
	for _, name := range preloaded {
		if !maps.Equal(multiset(viaQUEL.m, name), multiset(viaCore.m, name)) {
			t.Errorf("%s holds other tuples after the QUEL rows than after the core rows", name)
		}
	}
}

// TestTablesThroughQUEL runs the Gamma rows of Tables 1-3 both through the
// bench's core queries and as QUEL text, on machines built alike. QUEL lets
// the optimizer pick each access path, and it picks the one the bench
// forces. Rows QUEL cannot express:
//   - joinCselAselB (Table 2, both attributes): a three-way join, and a QUEL
//     qualification holds one join term.
func TestTablesThroughQUEL(t *testing.T) {
	const n = 10000
	t.Run("table1", func(t *testing.T) {
		texts := map[string]string{
			"1% nonindexed selection":                 "retrieve into r (h.all) where h.unique2 < 100",
			"10% nonindexed selection":                "retrieve into r (h.all) where h.unique2 < 1000",
			"1% selection using non-clustered index":  "retrieve into r (x.all) where x.unique2 < 100",
			"10% selection using non-clustered index": "retrieve into r (x.all) where x.unique2 < 1000",
			"1% selection using clustered index":      "retrieve into r (x.all) where x.unique1 < 100",
			"10% selection using clustered index":     "retrieve into r (x.all) where x.unique1 < 1000",
			"single tuple select":                     "retrieve (x.all) where x.unique1 = 5000",
		}
		var rows []quelRow
		for _, r := range table1Rows {
			if texts[r.label] == "" {
				t.Fatalf("%s: no QUEL text", r.label)
			}
			rows = append(rows, quelRow{r.label, func(g *gammaSetup) core.Result { return g.m.RunSelect(r.gamma(g, n)) }, texts[r.label]})
		}
		checkTwoWays(t, func() *gammaSetup { return newGamma(Options{}, 8, 8, n, 1) },
			[]string{"range of h is Aheap", "range of x is Aidx"}, rows)
	})

	t.Run("table2", func(t *testing.T) {
		join := func(q func(g *gammaSetup) core.JoinQuery) func(g *gammaSetup) core.Result {
			return func(g *gammaSetup) core.Result { return g.m.RunJoin(q(g)) }
		}
		checkTwoWays(t, func() *gammaSetup {
			return newGamma(Options{}, 8, 8, n, 1, heapRel("Bprime", n/10, 7), heapRel("B", n, 8), heapRel("C", n/10, 9))
		}, []string{"range of a is Aheap", "range of p is Bprime", "range of b is B"}, []quelRow{
			{"joinABprime, non-key", join(func(g *gammaSetup) core.JoinQuery { return joinABprime(g, rel.Unique2, core.Remote, 0) }),
				"retrieve into j (a.all) where a.unique2 = p.unique2"},
			{"joinAselB, non-key", join(func(g *gammaSetup) core.JoinQuery { return joinAselB(g, n, rel.Unique2, 0) }),
				"retrieve into j (a.all) where a.unique2 = b.unique2 and b.unique2 < 1000"},
			{"joinABprime, key", join(func(g *gammaSetup) core.JoinQuery { return joinABprime(g, rel.Unique1, core.Remote, 0) }),
				"retrieve into j (a.all) where a.unique1 = p.unique1"},
			{"joinAselB, key", join(func(g *gammaSetup) core.JoinQuery { return joinAselB(g, n, rel.Unique1, 0) }),
				"retrieve into j (a.all) where a.unique1 = b.unique1 and b.unique1 < 1000"},
		})
	})

	t.Run("table3", func(t *testing.T) {
		var fresh rel.Tuple
		fresh.Set(rel.Unique1, n+7)
		fresh.Set(rel.Unique2, n+7)
		update := func(name string, q core.UpdateQuery) func(g *gammaSetup) core.Result {
			return func(g *gammaSetup) core.Result { q.Rel = g.rel(name); return g.m.RunUpdate(q) }
		}
		checkTwoWays(t, func() *gammaSetup { return newGamma(Options{}, 8, 8, n, 1) }, []string{"range of x is Aidx"}, []quelRow{
			{"append 1 tuple (no indices exist)", update("Aheap", core.UpdateQuery{Kind: core.AppendTuple, Tuple: fresh}),
				"append to Aheap (unique1 = 10007, unique2 = 10007)"},
			{"append 1 tuple (one index exists)", update("Aidx", core.UpdateQuery{Kind: core.AppendTuple, Tuple: fresh}),
				"append to Aidx (unique1 = 10007, unique2 = 10007)"},
			{"delete 1 tuple", update("Aidx", core.UpdateQuery{Kind: core.DeleteByKey, Key: n + 7}),
				"delete x where x.unique1 = 10007"},
			{"modify 1 tuple (key attribute)", update("Aidx", core.UpdateQuery{Kind: core.ModifyKeyAttr, Key: n / 3, Attr: rel.Unique1, NewValue: n + 13}),
				"replace x (unique1 = 10013) where x.unique1 = 3333"},
			{"modify 1 tuple (non-indexed attribute)", update("Aidx", core.UpdateQuery{Kind: core.ModifyNonIndexed, Key: n / 4, Attr: rel.OddOnePercent, NewValue: 1}),
				"replace x (oddOnePercent = 1) where x.unique1 = 2500"},
			{"modify 1 tuple (non-clustered index used)", update("Aidx", core.UpdateQuery{Kind: core.ModifyIndexed, Key: n / 5, Attr: rel.Unique2, NewValue: n + 21}),
				"replace x (unique2 = 10021) where x.unique2 = 2000"},
		})
	})
}
