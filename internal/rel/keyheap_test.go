package rel

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the merge heap as it was: container/heap over (key, id) pairs.
type refHeap [][2]int32

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i][0] < h[j][0] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.([2]int32)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestKeyHeapMatchesContainerHeap: through random merges dense in equal keys,
// KeyHeap keeps the same item on top as container/heap's Init, Fix(h, 0) and
// Pop do — the tie order merged files have always had.
func TestKeyHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		var h KeyHeap[int32]
		ref := &refHeap{}
		for id := int32(0); id < int32(n); id++ {
			k := int32(rng.Intn(6))
			h.Add(k, id)
			*ref = append(*ref, [2]int32{k, id})
		}
		h.Init()
		heap.Init(ref)
		for step := 0; h.Len() > 0; step++ {
			if h.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: %d items, reference has %d", seed, step, h.Len(), ref.Len())
			}
			if got, want := h.Top(), (*ref)[0][1]; got != want {
				t.Fatalf("seed %d step %d: item %d on top, reference has %d", seed, step, got, want)
			}
			if rng.Intn(4) > 0 { // the run goes on: a key no smaller than the last
				k := (*ref)[0][0] + int32(rng.Intn(3))
				h.FixTop(k)
				(*ref)[0][0] = k
				heap.Fix(ref, 0)
			} else {
				h.PopTop()
				heap.Pop(ref)
			}
		}
	}
}
