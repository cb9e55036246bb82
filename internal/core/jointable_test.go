package core

import (
	"math/rand"
	"slices"
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
)

// TestJoinTableEvictionOrder holds the join table to the map-of-slices table
// it replaced: tuples with colliding keys arrive in a seeded order, the table
// overflows twice in the round (slice 1, then slice 8, the first of the
// second subpartitioning hash) with more tuples arriving in between, and each
// eviction must return the reference's spool order — the claimed keys
// ascending, each key's tuples in arrival order — and leave every key's probe
// count equal to the reference's.
func TestJoinTableEvictionOrder(t *testing.T) {
	prm := config.Default()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		round := int(seed % 3)
		jt := &joinTable{spec: joinSpec{m: &Machine{Prm: &prm}, buildAttr: rel.Unique2}, prm: 1 << 30}
		jt.beginPhase(round)
		ref := map[int32][]rel.Tuple{}
		arrive := func(n int) {
			for range n {
				var tp rel.Tuple
				v := int32(rng.Intn(300))
				tp.Set(rel.Unique2, v)
				tp.Set(rel.Unique1, int32(rng.Intn(1<<30))) // tells a key's tuples apart
				jt.insert(&tp)
				ref[v] = append(ref[v], tp)
			}
		}
		evictions := 0
		for _, slice := range []int{1, 8} {
			arrive(400 + rng.Intn(400))
			var keys []int32
			for v := range ref {
				if ovfBit(v, round, slice) {
					keys = append(keys, v)
				}
			}
			slices.Sort(keys)
			var want []rel.Tuple
			for _, v := range keys {
				want = append(want, ref[v]...)
				delete(ref, v)
			}
			got := jt.evict(slice)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d slice %d: evicted %d tuples, want %d in the reference's order", seed, slice, len(got), len(want))
			}
			if len(got) > 0 {
				evictions++
			}
			for v := int32(0); v < 300; v++ {
				if n := jt.counts.count(v); n != len(ref[v]) {
					t.Fatalf("seed %d slice %d: key %d counts %d tuples, want %d", seed, slice, v, n, len(ref[v]))
				}
			}
		}
		if evictions != 2 {
			t.Fatalf("seed %d: %d of 2 overflows evicted anything", seed, evictions)
		}
	}
}
