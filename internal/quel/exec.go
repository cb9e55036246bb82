package quel

import (
	"fmt"
	"slices"
	"strings"

	"gamma/internal/core"
	"gamma/internal/rel"
)

// Session holds range-variable bindings against one machine.
type Session struct {
	m      *core.Machine
	ranges map[string]*core.Relation
	// Mode is the join placement used for joins and aggregates.
	Mode core.JoinMode
}

// NewSession starts a session on m.
func NewSession(m *core.Machine) *Session {
	return &Session{m: m, ranges: map[string]*core.Relation{}, Mode: core.Remote}
}

// Output is the result of executing one statement.
type Output struct {
	// Message is a human-readable summary.
	Message string
	// Result holds the engine result of every statement that ran a query.
	Result *core.Result
	// Agg holds the result of an aggregate retrieve, groups included.
	Agg *core.AggResult
}

// Exec parses and runs one statement.
func (s *Session) Exec(line string) (Output, error) {
	st, err := Parse(line)
	if err != nil {
		return Output{}, err
	}
	if st == nil {
		return Output{Message: ""}, nil
	}
	return s.Run(st)
}

// Run executes a parsed statement against the session's machine. A query
// that could not complete (its Result.Err) fails the statement, whatever its
// class.
func (s *Session) Run(st Stmt) (Output, error) {
	var out Output
	var err error
	switch st := st.(type) {
	case *RangeStmt:
		out, err = s.runRange(st)
	case *RetrieveStmt:
		out, err = s.runRetrieve(st)
	case *AppendStmt:
		out, err = s.runAppend(st)
	case *DeleteStmt:
		out, err = s.runDelete(st)
	case *ReplaceStmt:
		out, err = s.runReplace(st)
	default:
		return Output{}, fmt.Errorf("quel: unsupported statement %T", st)
	}
	if err == nil && out.Result != nil && out.Result.Err != nil {
		return Output{}, out.Result.Err
	}
	return out, err
}

// runRange binds a range variable to a catalogued relation.
func (s *Session) runRange(st *RangeStmt) (Output, error) {
	r, ok := s.m.Relation(st.Rel)
	if !ok {
		return Output{}, fmt.Errorf("quel: unknown relation %q", st.Rel)
	}
	s.ranges[st.Var] = r
	return Output{Message: fmt.Sprintf("range variable %s bound to %s (%d tuples)", st.Var, st.Rel, r.N)}, nil
}

// runRetrieve dispatches plain, into, join, and aggregate retrieves.
func (s *Session) runRetrieve(st *RetrieveStmt) (Output, error) {
	q, err := buildQual(st.Where)
	if err != nil {
		return Output{}, err
	}
	if st.Agg != nil {
		return s.runAgg(st.Agg, st.GroupBy, q)
	}
	if q.hasJoin {
		if st.Project != nil {
			return Output{}, fmt.Errorf("quel: projection on joins is not supported; use .all")
		}
		return s.runJoin(st.Var, st.Into, q)
	}
	return s.runSelect(st.Var, st.Into, st.Project, q)
}

func (s *Session) relOf(v string) (*core.Relation, error) {
	r, ok := s.ranges[v]
	if !ok {
		return nil, fmt.Errorf("quel: unbound range variable %q", v)
	}
	return r, nil
}

func (s *Session) runSelect(v, into string, project []rel.Attr, q *qual) (Output, error) {
	r, err := s.relOf(v)
	if err != nil {
		return Output{}, err
	}
	res := s.m.RunSelect(core.SelectQuery{
		Scan:       core.ScanSpec{Rel: r, Pred: q.pred(v)},
		ResultName: into,
		ToHost:     into == "",
		Project:    project,
	})
	msg := fmt.Sprintf("%d tuples in %.3fs", res.Tuples, res.Elapsed.Seconds())
	if into != "" {
		msg += " -> " + res.ResultName
	}
	return Output{Message: msg, Result: &res}, nil
}

func (s *Session) runJoin(tvar, into string, q *qual) (Output, error) {
	ra, err := s.relOf(q.av)
	if err != nil {
		return Output{}, err
	}
	rb, err := s.relOf(q.bv)
	if err != nil {
		return Output{}, err
	}
	// Propagate range restrictions across the join term (§6.1).
	pa := q.pred(q.av)
	pb := q.pred(q.bv)
	if prop, ok := core.PropagateSelection(q.aattr, q.battr, pb); ok && pa.IsTrue() {
		pa = prop
	}
	if prop, ok := core.PropagateSelection(q.battr, q.aattr, pa); ok && pb.IsTrue() {
		pb = prop
	}
	// Build on the (estimated) smaller input.
	buildRel, buildPred, buildAttr := rb, pb, q.battr
	probeRel, probePred, probeAttr := ra, pa, q.aattr
	if float64(ra.N)*pa.Selectivity(ra.N) < float64(rb.N)*pb.Selectivity(rb.N) {
		buildRel, buildPred, buildAttr, probeRel, probePred, probeAttr =
			ra, pa, q.aattr, rb, pb, q.battr
	}
	res := s.m.RunJoin(core.JoinQuery{
		Build: core.ScanSpec{Rel: buildRel, Pred: buildPred}, BuildAttr: buildAttr,
		Probe: core.ScanSpec{Rel: probeRel, Pred: probePred}, ProbeAttr: probeAttr,
		Mode:       s.Mode,
		ResultName: into,
	})
	msg := fmt.Sprintf("%d tuples in %.3fs (join, build=%s)", res.Tuples, res.Elapsed.Seconds(), buildRel.Name)
	if res.Overflows > 0 {
		msg += fmt.Sprintf(", %d overflow resolutions", res.Overflows)
	}
	return Output{Message: msg, Result: &res}, nil
}

func (s *Session) runAgg(a *AggTarget, groupBy *rel.Attr, q *qual) (Output, error) {
	r, err := s.relOf(a.Var)
	if err != nil {
		return Output{}, err
	}
	res := s.m.RunAgg(core.AggQuery{
		Scan:    core.ScanSpec{Rel: r, Pred: q.pred(a.Var)},
		Fn:      a.Fn,
		Attr:    a.Attr,
		GroupBy: groupBy,
		Mode:    s.Mode,
	})
	var b strings.Builder
	if groupBy == nil {
		fmt.Fprintf(&b, "%s(%s) = %d", a.Fn, a.Attr, res.Groups[0])
	} else {
		keys := make([]int32, 0, len(res.Groups))
		for k := range res.Groups {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%d: %d\n", *groupBy, k, res.Groups[k])
		}
	}
	fmt.Fprintf(&b, "  (%.3fs)", res.Elapsed.Seconds())
	return Output{Message: b.String(), Result: &res.Result, Agg: &res}, nil
}

// tuples counts n tuples in a message: "1 tuple", "0 tuples".
func tuples(n int) string {
	if n == 1 {
		return "1 tuple"
	}
	return fmt.Sprintf("%d tuples", n)
}

// runAppend builds the tuple from the set list and appends it.
func (s *Session) runAppend(st *AppendStmt) (Output, error) {
	r, ok := s.m.Relation(st.Rel)
	if !ok {
		return Output{}, fmt.Errorf("quel: unknown relation %q", st.Rel)
	}
	var t rel.Tuple
	for _, c := range st.Sets {
		t.Set(c.Attr, clamp32(c.Val))
	}
	res := s.m.RunUpdate(core.UpdateQuery{Rel: r, Kind: core.AppendTuple, Tuple: t})
	return Output{Message: fmt.Sprintf("appended %s in %.3fs", tuples(res.Tuples), res.Elapsed.Seconds()), Result: &res}, nil
}

// runDelete requires an exact predicate on the partitioning attribute.
func (s *Session) runDelete(st *DeleteStmt) (Output, error) {
	r, err := s.relOf(st.Var)
	if err != nil {
		return Output{}, err
	}
	q, err := buildQual(st.Where)
	if err != nil {
		return Output{}, err
	}
	key, ok := exactKey(q, st.Var, r.PartAttr)
	if !ok {
		return Output{}, fmt.Errorf("quel: delete requires an exact predicate on %s", r.PartAttr)
	}
	res := s.m.RunUpdate(core.UpdateQuery{Rel: r, Kind: core.DeleteByKey, Key: key})
	return Output{Message: fmt.Sprintf("deleted %s in %.3fs", tuples(res.Tuples), res.Elapsed.Seconds()), Result: &res}, nil
}

// runReplace picks the update kind from the modified attribute and indexes.
func (s *Session) runReplace(st *ReplaceStmt) (Output, error) {
	r, err := s.relOf(st.Var)
	if err != nil {
		return Output{}, err
	}
	q, err := buildQual(st.Where)
	if err != nil {
		return Output{}, err
	}
	attr, newVal := st.Set.Attr, clamp32(st.Set.Val)

	uq := core.UpdateQuery{Rel: r, Attr: attr, NewValue: newVal}
	switch {
	case attr == r.PartAttr:
		key, ok := exactKey(q, st.Var, r.PartAttr)
		if !ok {
			return Output{}, fmt.Errorf("quel: key modification requires an exact predicate on %s", r.PartAttr)
		}
		uq.Kind, uq.Key = core.ModifyKeyAttr, key
	default:
		if key, ok := exactKey(q, st.Var, attr); ok && indexedNonClustered(r, attr) {
			// Locate through the attribute's own dense index.
			uq.Kind, uq.Key = core.ModifyIndexed, key
		} else if key, ok := exactKey(q, st.Var, r.PartAttr); ok {
			uq.Kind, uq.Key = core.ModifyNonIndexed, key
		} else {
			return Output{}, fmt.Errorf("quel: replace requires an exact predicate on %s or on the modified indexed attribute", r.PartAttr)
		}
	}
	res := s.m.RunUpdate(uq)
	return Output{Message: fmt.Sprintf("replaced %s in %.3fs (%s)", tuples(res.Tuples), res.Elapsed.Seconds(), uq.Kind), Result: &res}, nil
}

func indexedNonClustered(r *core.Relation, attr rel.Attr) bool {
	bt, ok := r.Index(attr)
	return ok && !r.ClusteredOn(attr) && bt != nil
}

func exactKey(q *qual, v string, attr rel.Attr) (int32, bool) {
	b, ok := q.bounds[v][attr]
	if !ok || b[0] != b[1] {
		return 0, false
	}
	return clamp32(b[0]), true
}
