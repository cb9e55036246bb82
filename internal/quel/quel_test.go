package quel

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	s := sim.New()
	prm := config.Default()
	m := core.NewMachine(s, &prm, 4, 4)
	u1 := rel.Unique1
	m.Load(core.LoadSpec{
		Name: "tenktup", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(2000, 1))
	m.Load(core.LoadSpec{Name: "bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(200, 7))
	ses := NewSession(m)
	mustExec(t, ses, "range of t is tenktup")
	mustExec(t, ses, "range of b is bprime")
	return ses
}

func mustExec(t *testing.T, s *Session, stmt string) Output {
	t.Helper()
	out, err := s.Exec(stmt)
	if err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
	return out
}

func TestRangeAndRetrieve(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "retrieve (t.all) where t.unique2 < 20")
	if out.Result.Tuples != 20 {
		t.Errorf("tuples = %d, want 20", out.Result.Tuples)
	}
}

func TestRetrieveInto(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "retrieve into res (t.all) where t.unique1 >= 100 and t.unique1 <= 199")
	if out.Result.Tuples != 100 {
		t.Errorf("tuples = %d, want 100", out.Result.Tuples)
	}
	if _, ok := s.m.Relation("res"); !ok {
		t.Error("result relation not catalogued")
	}
}

func TestConjunctionTightensBounds(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "retrieve (t.all) where t.unique2 < 50 and t.unique2 >= 40")
	if out.Result.Tuples != 10 {
		t.Errorf("tuples = %d, want 10", out.Result.Tuples)
	}
	// Reversed operand order must work too.
	out = mustExec(t, s, "retrieve (t.all) where 50 > t.unique2 and 40 <= t.unique2")
	if out.Result.Tuples != 10 {
		t.Errorf("flipped: tuples = %d, want 10", out.Result.Tuples)
	}
}

func TestJoinRetrieve(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "retrieve into j (t.all) where t.unique2 = b.unique2")
	if out.Result.Tuples != 200 {
		t.Errorf("join tuples = %d, want 200", out.Result.Tuples)
	}
}

func TestJoinWithSelectionPropagation(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "retrieve into j (t.all) where t.unique2 = b.unique2 and b.unique2 < 50")
	if out.Result.Tuples != 50 {
		t.Errorf("join tuples = %d, want 50", out.Result.Tuples)
	}
}

func TestScalarAggregates(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "retrieve (count(t.unique1))")
	if out.Agg.Groups[0] != 2000 {
		t.Errorf("count = %d", out.Agg.Groups[0])
	}
	out = mustExec(t, s, "retrieve (max(t.unique2)) where t.unique2 < 100")
	if out.Agg.Groups[0] != 99 {
		t.Errorf("max = %d", out.Agg.Groups[0])
	}
}

func TestGroupedAggregate(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "retrieve (count(t.unique1)) by t.ten")
	if len(out.Agg.Groups) != 10 {
		t.Fatalf("groups = %d", len(out.Agg.Groups))
	}
	for _, v := range out.Agg.Groups {
		if v != 200 {
			t.Errorf("group count = %d, want 200", v)
		}
	}
}

func TestAppendDeleteReplace(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "append to tenktup (unique1 = 9999, unique2 = 9999)")
	if out.Result.Tuples != 1 {
		t.Fatal("append failed")
	}
	out = mustExec(t, s, "retrieve (t.all) where t.unique1 = 9999")
	if out.Result.Tuples != 1 {
		t.Fatal("appended tuple not found")
	}
	mustExec(t, s, "replace t (ten = 5) where t.unique1 = 9999")
	mustExec(t, s, "replace t (unique2 = 8888) where t.unique2 = 9999")
	out = mustExec(t, s, "retrieve (t.all) where t.unique2 = 8888")
	if out.Result.Tuples != 1 {
		t.Fatal("indexed replace lost the tuple")
	}
	out = mustExec(t, s, "delete t where t.unique1 = 9999")
	if out.Result.Tuples != 1 {
		t.Fatal("delete failed")
	}
	if !strings.HasPrefix(out.Message, "deleted 1 tuple in") {
		t.Errorf("delete message %q", out.Message)
	}
	out = mustExec(t, s, "retrieve (t.all) where t.unique1 = 9999")
	if out.Result.Tuples != 0 {
		t.Fatal("tuple still present after delete")
	}
	out = mustExec(t, s, "delete t where t.unique1 = 9999")
	if !strings.HasPrefix(out.Message, "deleted 0 tuples in") {
		t.Errorf("delete of a missing key: message %q", out.Message)
	}
	out = mustExec(t, s, "replace t (ten = 5) where t.unique1 = 9999")
	if !strings.HasPrefix(out.Message, "replaced 0 tuples in") {
		t.Errorf("replace of a missing key: message %q", out.Message)
	}
}

// TestUnavailableIsAnError: with both copies of fragment 1 lost (sites 1 and
// 2 of a chain-declustered 4+4 machine crashed), every statement class that
// needs that fragment fails with core's *ErrUnavailable — aggregates and
// updates as well as selections — and one that does not still runs.
func TestUnavailableIsAnError(t *testing.T) {
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, 4, 4)
	m.EnableMirroring()
	u1 := rel.Unique1
	m.Load(core.LoadSpec{
		Name: "tenktup", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(2000, 1))
	m.CrashDisk(1)
	m.CrashDisk(2)
	s := NewSession(m)
	mustExec(t, s, "range of t is tenktup")
	// keyOn returns the first unique1 value from lo up that hashes to site.
	keyOn := func(site, lo int) int {
		site4 := core.HashRoute(rel.Unique1, core.LoadSeed, 4)
		for k := lo; ; k++ {
			var tup rel.Tuple
			tup.Set(rel.Unique1, int32(k))
			if site4(&tup) == site {
				return k
			}
		}
	}
	lost, live := keyOn(1, 0), keyOn(0, 0)
	for _, stmt := range []string{
		"retrieve (t.all) where t.unique2 < 3",
		"retrieve (count(t.unique1))",
		"retrieve (sum(t.unique2)) by t.ten",
		fmt.Sprintf("append to tenktup (unique1 = %d, unique2 = 100003)", keyOn(1, 100000)),
		fmt.Sprintf("delete t where t.unique1 = %d", lost),
		fmt.Sprintf("replace t (ten = 3) where t.unique1 = %d", lost),
		fmt.Sprintf("replace t (unique1 = %d) where t.unique1 = %d", keyOn(0, 100000), lost),
		"replace t (unique2 = 100999) where t.unique2 = 58",
	} {
		out, err := s.Exec(stmt)
		var unavailable *core.ErrUnavailable
		if !errors.As(err, &unavailable) {
			t.Errorf("Exec(%q) = %q, %v; want *core.ErrUnavailable", stmt, out.Message, err)
		}
	}
	if out := mustExec(t, s, fmt.Sprintf("delete t where t.unique1 = %d", live)); out.Result.Tuples != 1 {
		t.Errorf("delete on a live site: %q", out.Message)
	}
}

func TestParseErrors(t *testing.T) {
	s := newSession(t)
	bad := []string{
		"frobnicate",
		"range of x is nosuchrel",
		"retrieve (t.all) where t.bogus = 1",
		"retrieve (q.all)",
		"retrieve (t.all) where t.unique1 < b.unique1", // non-equijoin
		"retrieve (t.all) where 1 = 2",
		"delete t where t.unique2 < 5", // not an exact key
	}
	for _, stmt := range bad {
		if _, err := s.Exec(stmt); err == nil {
			t.Errorf("Exec(%q) should have failed", stmt)
		}
	}
}

// TestMultiAttributeQualificationRejected: a scan applies one range
// predicate, so restricting a range variable on two attributes must be an
// error naming them — not an answer that silently drops one term (unique1 5
// and unique2 6 never hold together, yet dropping either term finds a tuple),
// or a plan picked in Go map order.
func TestMultiAttributeQualificationRejected(t *testing.T) {
	s := newSession(t)
	for _, stmt := range []string{
		"retrieve (t.all) where t.unique1 = 5 and t.unique2 = 6",
		"retrieve (t.all) where t.unique2 < 9 and t.unique1 >= 0 and t.unique2 > 2",
		"retrieve into j (t.all) where t.unique2 = b.unique2 and t.unique1 < 5 and t.unique2 < 10",
		"retrieve (count(t.unique1)) where t.unique1 < 5 and t.unique2 < 10",
		"delete t where t.unique1 = 5 and t.unique2 = 6",
		"replace t (ten = 1) where t.unique1 = 5 and t.unique2 = 6",
	} {
		_, err := s.Exec(stmt)
		if err == nil || !strings.Contains(err.Error(), "t.unique1 and t.unique2") {
			t.Errorf("Exec(%q) = %v, want an error naming t.unique1 and t.unique2", stmt, err)
		}
	}
	// One attribute per variable, as many terms as wanted, still runs.
	out := mustExec(t, s, "retrieve (t.unique1) where t.unique1 >= 100 and t.unique1 < 200 and 150 > t.unique1")
	if out.Result.Tuples != 50 {
		t.Errorf("single-attribute conjunction: tuples = %d, want 50", out.Result.Tuples)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "RETRIEVE (t.all) WHERE t.unique2 < 10")
	if out.Result.Tuples != 10 {
		t.Errorf("tuples = %d", out.Result.Tuples)
	}
}

func TestProjectionTargetList(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "retrieve into narrow (t.unique1, t.unique2) where t.unique2 < 100")
	if out.Result.Tuples != 100 {
		t.Fatalf("tuples = %d", out.Result.Tuples)
	}
	r, ok := s.m.Relation("narrow")
	if !ok || r.Width != 8 {
		t.Errorf("projected width = %d, want 8", r.Width)
	}
	// Mixing range variables in a target list is rejected.
	if _, err := s.Exec("retrieve (t.unique1, b.unique2)"); err == nil {
		t.Error("mixed target list accepted")
	}
	// Projection on joins is rejected with a clear error.
	if _, err := s.Exec("retrieve (t.unique1) where t.unique2 = b.unique2"); err == nil {
		t.Error("join projection accepted")
	}
}

func TestJoinMessageMentionsBuildSide(t *testing.T) {
	s := newSession(t)
	out := mustExec(t, s, "retrieve into j2 (t.all) where t.unique2 = b.unique2")
	if !strings.Contains(out.Message, "build=bprime") {
		t.Errorf("expected smaller relation as build side, got %q", out.Message)
	}
}
