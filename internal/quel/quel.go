// Package quel implements a small QUEL front end for the Gamma machine —
// the paper's Gamma speaks "an extended version of the query language QUEL"
// (§4, [STON76]). Supported statements:
//
//	range of t is tenktup
//	retrieve [into name] (t.all) [where <qual>]
//	retrieve (count(t.unique1)) [by t.ten] [where <qual>]
//	retrieve into name (a.all) where a.unique2 = b.unique2 [and <qual>]
//	append to tenktup (unique1 = 7, unique2 = 12)
//	delete t where t.unique1 = 55
//	replace t (ten = 3) where t.unique1 = 55
//
// A qualification is a conjunction ("and") of comparisons between an
// attribute and a constant (=, <, <=, >, >=) or an equijoin term between two
// range variables' attributes. Range restrictions on one side of a join term
// are propagated to the other, as Gamma's optimizer does (§6.1).
//
// Parsing and execution are separate layers: Parse turns a line into a Stmt
// (ast.go) with no catalog access, and Session.Run executes a Stmt against a
// machine. Session.Exec composes the two.
package quel

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gamma/internal/core"
	"gamma/internal/rel"
)

// Parse parses one statement into its AST without touching any session or
// catalog state. An all-whitespace line parses to (nil, nil).
func Parse(line string) (Stmt, error) {
	toks, err := lex(line)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, nil
	}
	p := &parser{toks: toks}
	var st Stmt
	switch strings.ToLower(toks[0].text) {
	case "range":
		st, err = p.parseRange()
	case "retrieve":
		st, err = p.parseRetrieve()
	case "append":
		st, err = p.parseAppend()
	case "delete":
		st, err = p.parseDelete()
	case "replace":
		st, err = p.parseReplace()
	default:
		return nil, fmt.Errorf("quel: unknown statement %q", toks[0].text)
	}
	if err != nil {
		return nil, err
	}
	if !p.done() {
		return nil, fmt.Errorf("quel: trailing input %q", p.peek())
	}
	return st, nil
}

// --- lexer ---------------------------------------------------------------

type token struct {
	text string
	pos  int
}

func lex(line string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '=':
			toks = append(toks, token{string(c), i})
			i++
		case c == '<' || c == '>':
			if i+1 < len(line) && line[i+1] == '=' {
				toks = append(toks, token{line[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{string(c), i})
				i++
			}
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(line) && line[j] >= '0' && line[j] <= '9' {
				j++
			}
			toks = append(toks, token{line[i:j], i})
			i = j
		case isIdentChar(c):
			j := i
			for j < len(line) && isIdentChar(line[j]) {
				j++
			}
			toks = append(toks, token{line[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("quel: unexpected character %q at %d", c, i)
		}
	}
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// --- parser --------------------------------------------------------------

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() string {
	if p.i < len(p.toks) {
		return p.toks[p.i].text
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.i++
	return t
}

func (p *parser) expect(want string) error {
	if got := p.next(); !strings.EqualFold(got, want) {
		return fmt.Errorf("quel: expected %q, got %q", want, got)
	}
	return nil
}

// ident consumes a name token: relation, range-variable, or result names.
func (p *parser) ident() (string, error) {
	t := p.next()
	if t == "" {
		return "", fmt.Errorf("quel: unexpected end of input")
	}
	if c := t[0]; c != '_' && !(c >= 'a' && c <= 'z') && !(c >= 'A' && c <= 'Z') {
		return "", fmt.Errorf("quel: expected identifier, got %q", t)
	}
	return t, nil
}

// attr consumes an attribute name token.
func (p *parser) attr() (rel.Attr, error) {
	t := p.next()
	a, ok := rel.AttrByName(t)
	if !ok {
		return 0, fmt.Errorf("quel: unknown attribute %q", t)
	}
	return a, nil
}

func (p *parser) done() bool { return p.i >= len(p.toks) }

// --- statement parsers ---------------------------------------------------

// parseRange parses `range of <var> is <relation>`.
func (p *parser) parseRange() (Stmt, error) {
	p.next() // range
	if err := p.expect("of"); err != nil {
		return nil, err
	}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("is"); err != nil {
		return nil, err
	}
	rn, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &RangeStmt{Var: v, Rel: rn}, nil
}

var aggNames = map[string]core.AggFn{
	"count": core.Count, "sum": core.Sum, "min": core.Min, "max": core.Max, "avg": core.Avg,
}

// parseRetrieve parses plain, into, join, and aggregate retrieves.
func (p *parser) parseRetrieve() (Stmt, error) {
	p.next() // retrieve
	st := &RetrieveStmt{}
	if strings.EqualFold(p.peek(), "into") {
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Into = name
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}

	// Target list: `v.all`, a projection list `v.a1, v.a2, ...`, or an
	// aggregate `fn(v.attr)`.
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	if fn, ok := aggNames[strings.ToLower(first)]; ok {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("."); err != nil {
			return nil, err
		}
		a, err := p.attr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		st.Agg = &AggTarget{Fn: fn, Var: v, Attr: a}
		st.Var = v
	} else {
		st.Var = first
		if err := p.expect("."); err != nil {
			return nil, err
		}
		name := p.next()
		if strings.EqualFold(name, "all") {
			st.All = true
		} else {
			a, ok := rel.AttrByName(name)
			if !ok {
				return nil, fmt.Errorf("quel: unknown attribute %q in target list", name)
			}
			st.Project = append(st.Project, a)
			for p.peek() == "," {
				p.next()
				v, err := p.ident()
				if err != nil {
					return nil, err
				}
				if v != st.Var {
					return nil, fmt.Errorf("quel: target list mixes range variables")
				}
				if err := p.expect("."); err != nil {
					return nil, err
				}
				a, err := p.attr()
				if err != nil {
					return nil, err
				}
				st.Project = append(st.Project, a)
			}
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}

	// Optional `by v.attr` (grouped aggregate).
	if strings.EqualFold(p.peek(), "by") {
		p.next()
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("."); err != nil {
			return nil, err
		}
		a, err := p.attr()
		if err != nil {
			return nil, err
		}
		if v != st.Var {
			return nil, fmt.Errorf("quel: grouping variable must match the aggregate's")
		}
		st.GroupBy = &a
	}

	// Optional qualification.
	if strings.EqualFold(p.peek(), "where") {
		p.next()
		st.Where, err = p.parseWhere()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parseAppend parses `append to <rel> (attr = val, ...)`.
func (p *parser) parseAppend() (Stmt, error) {
	p.next() // append
	if err := p.expect("to"); err != nil {
		return nil, err
	}
	rn, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	st := &AppendStmt{Rel: rn}
	for {
		c, err := p.parseSet()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, c)
		if p.peek() == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return st, nil
}

// parseDelete parses `delete <var> where <qual>`.
func (p *parser) parseDelete() (Stmt, error) {
	p.next() // delete
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("where"); err != nil {
		return nil, err
	}
	terms, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	return &DeleteStmt{Var: v, Where: terms}, nil
}

// parseReplace parses `replace <var> (attr = val) where <qual>`.
func (p *parser) parseReplace() (Stmt, error) {
	p.next() // replace
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	set, err := p.parseSet()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("where"); err != nil {
		return nil, err
	}
	terms, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	return &ReplaceStmt{Var: v, Set: set, Where: terms}, nil
}

// parseSet parses one `attr = value` assignment.
func (p *parser) parseSet() (SetClause, error) {
	a, err := p.attr()
	if err != nil {
		return SetClause{}, err
	}
	if err := p.expect("="); err != nil {
		return SetClause{}, err
	}
	tok := p.next()
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return SetClause{}, fmt.Errorf("quel: expected integer, got %q", tok)
	}
	return SetClause{Attr: a, Val: v}, nil
}

// --- qualifications ------------------------------------------------------

// parseWhere parses `<term> [and <term>]...` where a term is
// `var.attr OP const`, `const OP var.attr`, or `var.attr = var.attr`.
func (p *parser) parseWhere() ([]Term, error) {
	var terms []Term
	joins := 0
	for {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		switch {
		case t.Left.IsConst && t.Right.IsConst:
			return nil, fmt.Errorf("quel: constant comparison is not useful")
		case !t.Left.IsConst && !t.Right.IsConst:
			if t.Op != "=" {
				return nil, fmt.Errorf("quel: only equijoins are supported")
			}
			if joins++; joins > 1 {
				return nil, fmt.Errorf("quel: at most one join term per query")
			}
		}
		terms = append(terms, t)
		if strings.EqualFold(p.peek(), "and") {
			p.next()
			continue
		}
		return terms, nil
	}
}

func (p *parser) parseTerm() (Term, error) {
	l, err := p.parseOperand()
	if err != nil {
		return Term{}, err
	}
	op := p.next()
	switch op {
	case "=", "<", "<=", ">", ">=":
	default:
		return Term{}, fmt.Errorf("quel: expected comparison operator, got %q", op)
	}
	r, err := p.parseOperand()
	if err != nil {
		return Term{}, err
	}
	return Term{Left: l, Op: op, Right: r}, nil
}

// parseOperand parses `var.attr` or an integer constant.
func (p *parser) parseOperand() (Operand, error) {
	t := p.next()
	if t == "" {
		return Operand{}, fmt.Errorf("quel: unexpected end of input")
	}
	if n, convErr := strconv.ParseInt(t, 10, 64); convErr == nil {
		return Operand{Const: n, IsConst: true}, nil
	}
	if c := t[0]; c != '_' && !(c >= 'a' && c <= 'z') && !(c >= 'A' && c <= 'Z') {
		return Operand{}, fmt.Errorf("quel: expected var.attr or constant, got %q", t)
	}
	if p.peek() != "." {
		return Operand{}, fmt.Errorf("quel: expected var.attr or constant, got %q", t)
	}
	p.next()
	a, err := p.attr()
	if err != nil {
		return Operand{}, err
	}
	return Operand{Var: t, Attr: a}, nil
}

// qual is a folded conjunction: per-variable range restrictions plus at most
// one equijoin term. The executor builds it from a Stmt's Term list.
type qual struct {
	// bounds[var][attr] = [lo, hi]
	bounds map[string]map[rel.Attr][2]int64
	// join term: av.aattr = bv.battr
	hasJoin      bool
	av, bv       string
	aattr, battr rel.Attr
}

func newQual() *qual {
	return &qual{bounds: map[string]map[rel.Attr][2]int64{}}
}

// buildQual folds a validated term list into per-variable bounds and the
// join term. A scan applies one range predicate, so a qualification that
// restricts one range variable on two or more attributes is rejected rather
// than answered with some of its terms dropped.
func buildQual(terms []Term) (*qual, error) {
	q := newQual()
	for _, t := range terms {
		switch {
		case !t.Left.IsConst && !t.Right.IsConst:
			q.hasJoin = true
			q.av, q.aattr = t.Left.Var, t.Left.Attr
			q.bv, q.battr = t.Right.Var, t.Right.Attr
		case t.Left.IsConst:
			// const OP var.attr: flip.
			q.applyCmp(t.Right.Var, t.Right.Attr, flip(t.Op), t.Left.Const)
		default:
			q.applyCmp(t.Left.Var, t.Left.Attr, t.Op, t.Right.Const)
		}
	}
	vars := make([]string, 0, len(q.bounds))
	for v := range q.bounds {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	for _, v := range vars {
		if len(q.bounds[v]) < 2 {
			continue
		}
		attrs := make([]rel.Attr, 0, len(q.bounds[v]))
		for a := range q.bounds[v] {
			attrs = append(attrs, a)
		}
		slices.Sort(attrs)
		names := make([]string, len(attrs))
		for i, a := range attrs {
			names[i] = v + "." + a.String()
		}
		return nil, fmt.Errorf("quel: %s restricted on %s; restrict each range variable on one attribute", v, strings.Join(names, " and "))
	}
	return q, nil
}

func (q *qual) restrict(v string, a rel.Attr, lo, hi int64) {
	m := q.bounds[v]
	if m == nil {
		m = map[rel.Attr][2]int64{}
		q.bounds[v] = m
	}
	b, ok := m[a]
	if !ok {
		b = [2]int64{-1 << 31, 1<<31 - 1}
	}
	if lo > b[0] {
		b[0] = lo
	}
	if hi < b[1] {
		b[1] = hi
	}
	m[a] = b
}

// pred is a variable's scan predicate: the range on its one restricted
// attribute (buildQual admits no more), or true.
func (q *qual) pred(v string) rel.Pred {
	for a, b := range q.bounds[v] {
		return rel.Pred{Attr: a, Lo: clamp32(b[0]), Hi: clamp32(b[1])}
	}
	return rel.True()
}

func clamp32(v int64) int32 {
	if v < -1<<31 {
		v = -1 << 31
	}
	if v > 1<<31-1 {
		v = 1<<31 - 1
	}
	return int32(v)
}

func flip(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func (q *qual) applyCmp(v string, a rel.Attr, op string, c int64) {
	switch op {
	case "=":
		q.restrict(v, a, c, c)
	case "<":
		q.restrict(v, a, -1<<31, c-1)
	case "<=":
		q.restrict(v, a, -1<<31, c)
	case ">":
		q.restrict(v, a, c+1, 1<<31-1)
	case ">=":
		q.restrict(v, a, c, 1<<31-1)
	}
}
