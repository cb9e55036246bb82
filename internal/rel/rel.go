// Package rel defines the relational model shared by the storage layer, the
// Wisconsin benchmark generator, and both machine simulators: fixed-schema
// tuples, attributes, predicates, and projection.
//
// The Wisconsin benchmark schema (§4 of the paper) has thirteen 4-byte
// integer attributes and three 52-byte string attributes. The integers are
// materialized; the strings are pure padding in every benchmark query, so
// they are accounted (every tuple occupies its full 208 logical bytes in
// pages and packets) but not stored. See DESIGN.md §1.
package rel

import "fmt"

// Attr identifies one of the thirteen integer attributes.
type Attr int

// The Wisconsin benchmark integer attributes, in schema order.
const (
	Unique1        Attr = iota // candidate key; partitioning attribute
	Unique2                    // candidate key, uncorrelated with Unique1
	Two                        // Unique1 mod 2
	Four                       // Unique1 mod 4
	Ten                        // Unique1 mod 10
	Twenty                     // Unique1 mod 20
	OnePercent                 // Unique1 mod 100
	TenPercent                 // Unique1 mod 10 (percentile form)
	TwentyPercent              // Unique1 mod 5
	FiftyPercent               // Unique1 mod 2
	Unique3                    // copy of Unique1
	EvenOnePercent             // 2 * OnePercent
	OddOnePercent              // 2 * OnePercent + 1
	NAttrs                     // number of integer attributes
)

var attrNames = [NAttrs]string{
	"unique1", "unique2", "two", "four", "ten", "twenty",
	"onePercent", "tenPercent", "twentyPercent", "fiftyPercent",
	"unique3", "evenOnePercent", "oddOnePercent",
}

func (a Attr) String() string {
	if a >= 0 && a < NAttrs {
		return attrNames[a]
	}
	return fmt.Sprintf("attr(%d)", int(a))
}

// AttrByName resolves an attribute name (as used by the QUEL front end).
func AttrByName(name string) (Attr, bool) {
	for i, n := range attrNames {
		if n == name {
			return Attr(i), true
		}
	}
	return 0, false
}

// Tuple is one Wisconsin benchmark record. Its logical on-disk and on-wire
// size is 208 bytes (config.Params.TupleBytes); only the integer attributes
// carry information.
type Tuple struct {
	A [NAttrs]int32
}

// Get returns the value of attribute a.
func (t *Tuple) Get(a Attr) int32 { return t.A[a] }

// Set assigns attribute a.
func (t *Tuple) Set(a Attr, v int32) { t.A[a] = v }

// Pred is a compiled range predicate: Lo <= t.Get(Attr) <= Hi.
// The zero Attr with Lo > Hi never matches; use True for a tautology.
type Pred struct {
	Attr   Attr
	Lo, Hi int32
}

// True is a predicate every tuple satisfies.
func True() Pred { return Pred{Attr: Unique1, Lo: -1 << 31, Hi: 1<<31 - 1} }

// Eq matches tuples whose attribute a equals v.
func Eq(a Attr, v int32) Pred { return Pred{Attr: a, Lo: v, Hi: v} }

// Between matches tuples with lo <= a <= hi.
func Between(a Attr, lo, hi int32) Pred { return Pred{Attr: a, Lo: lo, Hi: hi} }

// Match reports whether t satisfies the predicate.
func (p Pred) Match(t Tuple) bool {
	v := t.A[p.Attr]
	return v >= p.Lo && v <= p.Hi
}

// MatchRef is Match for a tuple in place — a slot of a page — sparing the
// scan loops a 52-byte copy per tuple examined.
func (p Pred) MatchRef(t *Tuple) bool {
	v := t.A[p.Attr]
	return v >= p.Lo && v <= p.Hi
}

// IsTrue reports whether the predicate accepts every tuple.
func (p Pred) IsTrue() bool { return p.Lo == -1<<31 && p.Hi == 1<<31-1 }

// Selectivity estimates the fraction of a relation of cardinality n that the
// predicate selects, assuming the attribute is uniform on [0, n) — true for
// unique1/unique2 by construction. Used by the access-path heuristic.
func (p Pred) Selectivity(n int) float64 {
	if n <= 0 {
		return 0
	}
	lo, hi := int64(p.Lo), int64(p.Hi)
	if lo < 0 {
		lo = 0
	}
	if hi >= int64(n) {
		hi = int64(n) - 1
	}
	if hi < lo {
		return 0
	}
	return float64(hi-lo+1) / float64(n)
}

func (p Pred) String() string {
	switch {
	case p.IsTrue():
		return "true"
	case p.Lo > p.Hi:
		return "false"
	case p.Lo == p.Hi:
		return fmt.Sprintf("%s = %d", p.Attr, p.Lo)
	default:
		return fmt.Sprintf("%d <= %s <= %d", p.Lo, p.Attr, p.Hi)
	}
}

// JoinKey is the attribute pair a join matches on.
type JoinKey struct {
	Left, Right Attr
}

// Hash64 mixes a 32-bit attribute value with a seed; it is the hash function
// used by split tables, hash partitioning, and join tables. Gamma uses the
// same function when loading relations and when joining (§6.2.1), which is
// what makes Local joins on the partitioning attribute short-circuit; the
// seed changes after a hash-table overflow (§6.2.2).
func Hash64(v int32, seed uint64) uint64 {
	x := uint64(uint32(v)) + seed*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Partition copies tuples into k slices, tuples[i] going to parts[site[i]] in
// input order. Every part is allocated at exactly its size, so a file that
// adopts one as its storage (wiss.File.LoadDirect) keeps no slack alive.
func Partition(tuples []Tuple, site []int32, k int) [][]Tuple {
	counts := make([]int, k)
	for _, j := range site {
		counts[j]++
	}
	parts := make([][]Tuple, k)
	for j := range parts {
		parts[j] = make([]Tuple, 0, counts[j])
	}
	for i, j := range site {
		parts[j] = append(parts[j], tuples[i])
	}
	return parts
}
