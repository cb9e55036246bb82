package rel

// KeyHeap is a binary min-heap of items ordered by an int32 key held beside
// each item — the shape of a k-way merge: the item with the smallest key is on
// top, and once it has moved on the top is re-keyed (FixTop) or removed
// (PopTop). It is typed, so a merge step costs no interface dispatch and no
// boxing, and it arranges equal keys exactly as container/heap's Init, Fix(h, 0)
// and Pop arrange them for the same sequence of operations, so files merged
// through it keep the tuple order they always had.
type KeyHeap[T any] struct {
	e []keyed[T]
}

type keyed[T any] struct {
	key  int32
	item T
}

// Add appends an item without ordering it; call Init once all are added.
func (h *KeyHeap[T]) Add(key int32, item T) { h.e = append(h.e, keyed[T]{key, item}) }

// Init establishes heap order over the added items.
func (h *KeyHeap[T]) Init() {
	for i := len(h.e)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Len returns the number of items.
func (h *KeyHeap[T]) Len() int { return len(h.e) }

// Top returns the item with the smallest key; the heap must not be empty.
func (h *KeyHeap[T]) Top() T { return h.e[0].item }

// FixTop gives the top item a new key and restores heap order.
func (h *KeyHeap[T]) FixTop(key int32) {
	h.e[0].key = key
	h.down(0)
}

// PopTop removes the top item.
func (h *KeyHeap[T]) PopTop() {
	n := len(h.e) - 1
	h.e[0] = h.e[n]
	h.e[n] = keyed[T]{}
	h.e = h.e[:n]
	if n > 1 {
		h.down(0)
	}
}

// down sifts slot i toward the leaves: at each level the smaller child moves
// up (the left one on a tie) while it is strictly smaller than the item.
func (h *KeyHeap[T]) down(i int) {
	e, n := h.e, len(h.e)
	x := e[i]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && e[j+1].key < e[j].key {
			j++
		}
		if e[j].key >= x.key {
			break
		}
		e[i] = e[j]
		i = j
	}
	e[i] = x
}
