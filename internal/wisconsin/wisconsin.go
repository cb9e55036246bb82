// Package wisconsin generates the Wisconsin benchmark relations of [BITT83]
// as used in §4 of the paper: 10,000 / 100,000 / 1,000,000-tuple relations
// whose unique1 and unique2 attributes are independent pseudo-random
// permutations of [0, n), guaranteeing uniqueness and no correlation.
//
// Generation is deterministic: a relation is fully determined by its
// cardinality and seed, so experiments are reproducible and fragments can be
// regenerated without storing source data. The package holds no state: a
// caller that wants a relation generated once keeps it itself.
package wisconsin

import "gamma/internal/rel"

// Perm is a pseudo-random permutation of [0, n) built from a four-round
// Feistel network with cycle-walking, so even the million-tuple relations
// need no materialized shuffle.
type Perm struct {
	n        uint64
	halfBits uint
	mask     uint64
	keys     [4]uint64
}

// NewPerm returns the permutation of [0, n) selected by seed.
func NewPerm(n int, seed uint64) *Perm {
	if n <= 0 {
		panic("wisconsin: NewPerm with n <= 0")
	}
	bits := uint(1)
	for 1<<(2*bits) < uint64(n) {
		bits++
	}
	p := &Perm{n: uint64(n), halfBits: bits, mask: 1<<bits - 1}
	x := seed
	for i := range p.keys {
		// SplitMix64 to derive round keys.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		p.keys[i] = z ^ (z >> 31)
	}
	return p
}

// At returns the image of i under the permutation: the four Feistel rounds,
// unrolled, walked until the value falls in [0, n).
func (p *Perm) At(i int) int {
	h, mask := p.halfBits, p.mask
	k0, k1, k2, k3 := p.keys[0], p.keys[1], p.keys[2], p.keys[3]
	v := uint64(i)
	for {
		l, r := v>>h, v&mask
		l ^= feistel(r, k0, mask)
		r ^= feistel(l, k1, mask)
		l ^= feistel(r, k2, mask)
		r ^= feistel(l, k3, mask)
		if v = l<<h | r; v < p.n {
			return int(v)
		}
	}
}

// feistel is the round function: a multiply-xorshift mix of one half and the
// round key, cut to a half's width.
func feistel(half, key, mask uint64) uint64 {
	x := half*0x9e3779b97f4a7c15 + key
	x ^= x >> 29
	x *= 0xff51afd7ed558ccd
	x ^= x >> 32
	return x & mask
}

// Tuple returns tuple i of an n-tuple relation with the given seed. The
// derived attributes follow the standard Wisconsin definitions.
func Tuple(i, n int, seed uint64) rel.Tuple {
	p1 := NewPerm(n, seed*2+1)
	p2 := NewPerm(n, seed*2+2)
	return makeTuple(p1.At(i), p2.At(i))
}

func makeTuple(u1, u2 int) rel.Tuple {
	var t rel.Tuple
	t.Set(rel.Unique1, int32(u1))
	t.Set(rel.Unique2, int32(u2))
	t.Set(rel.Two, int32(u1%2))
	t.Set(rel.Four, int32(u1%4))
	t.Set(rel.Ten, int32(u1%10))
	t.Set(rel.Twenty, int32(u1%20))
	t.Set(rel.OnePercent, int32(u1%100))
	t.Set(rel.TenPercent, int32(u1%10))
	t.Set(rel.TwentyPercent, int32(u1%5))
	t.Set(rel.FiftyPercent, int32(u1%2))
	t.Set(rel.Unique3, int32(u1))
	t.Set(rel.EvenOnePercent, int32((u1%100)*2))
	t.Set(rel.OddOnePercent, int32((u1%100)*2+1))
	return t
}

// Generate materializes all n tuples of a relation. It is a pure function of
// (n, seed): every call generates afresh and the caller owns the result. The
// bench suite, which loads the same relations onto many machines, keeps its
// own generated-relation caches (internal/bench, DESIGN.md §7).
func Generate(n int, seed uint64) []rel.Tuple {
	p1 := NewPerm(n, seed*2+1)
	p2 := NewPerm(n, seed*2+2)
	out := make([]rel.Tuple, n)
	for i := range out {
		out[i] = makeTuple(p1.At(i), p2.At(i))
	}
	return out
}
