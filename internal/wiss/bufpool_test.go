package wiss

import (
	"math/rand"
	"slices"
	"testing"
)

// refPool is the buffer pool's specification: an LRU list of (file, page)
// keys, least recently used first, with a map for membership.
type refPool struct {
	limit        int
	lru          [][2]int
	resident     map[[2]int]bool
	hits, misses int64
}

func (r *refPool) use(k [2]int) {
	i := slices.Index(r.lru, k)
	r.lru = append(slices.Delete(r.lru, i, i+1), k)
}

func (r *refPool) get(file, page int) bool {
	k := [2]int{file, page}
	if r.resident[k] {
		r.use(k)
		r.hits++
		return true
	}
	r.misses++
	return false
}

func (r *refPool) put(file, page int) {
	k := [2]int{file, page}
	if r.resident[k] {
		r.use(k)
		return
	}
	if len(r.lru) >= r.limit {
		delete(r.resident, r.lru[0])
		r.lru = r.lru[1:]
	}
	r.lru = append(r.lru, k)
	r.resident[k] = true
}

func (r *refPool) invalidate(file int) {
	r.lru = slices.DeleteFunc(r.lru, func(k [2]int) bool {
		if k[0] == file {
			delete(r.resident, k)
			return true
		}
		return false
	})
}

// TestBufferPoolMatchesReferenceLRU drives the pool through seeded
// Get/Put/InvalidateFile/Reset sequences over several files and checks every
// answer, the hit and miss counts and Len against the reference LRU, and at
// the end that the pool evicts in the reference's order.
func TestBufferPoolMatchesReferenceLRU(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 1 + rng.Intn(24)
		bp := NewBufferPool(limit)
		ref := &refPool{limit: limit, resident: map[[2]int]bool{}}
		for step := 0; step < 3000; step++ {
			file, page := 1+rng.Intn(5), rng.Intn(40)
			switch op := rng.Intn(100); {
			case op < 45:
				if got, want := bp.Get(file, page), ref.get(file, page); got != want {
					t.Fatalf("seed %d step %d: Get(%d, %d) = %v, want %v", seed, step, file, page, got, want)
				}
			case op < 93:
				bp.Put(file, page)
				ref.put(file, page)
			case op < 99:
				bp.InvalidateFile(file)
				ref.invalidate(file)
			default:
				bp.Reset()
				ref.lru, ref.resident = nil, map[[2]int]bool{}
			}
			hits, misses := bp.Stats()
			if bp.Len() != len(ref.lru) || hits != ref.hits || misses != ref.misses {
				t.Fatalf("seed %d step %d: Len %d hits %d misses %d, want %d %d %d",
					seed, step, bp.Len(), hits, misses, len(ref.lru), ref.hits, ref.misses)
			}
		}
		// Fill the pool with fresh pages one at a time: each evicts the
		// reference's LRU page, which must then miss.
		for i := 0; i < limit; i++ {
			full := len(ref.lru) == limit
			var victim [2]int
			if full {
				victim = ref.lru[0]
			}
			bp.Put(99, i)
			if full && bp.Get(victim[0], victim[1]) {
				t.Fatalf("seed %d: page %v is still resident after the pool evicted its LRU page", seed, victim)
			}
			ref.put(99, i)
		}
	}
}
