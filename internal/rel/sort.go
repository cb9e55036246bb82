package rel

// KeyIndex is a sort key packed with the index of what it belongs to: the key
// in the high half, its sign bit flipped so that signed key order is unsigned
// digit order, the index in the low half. An external sort moves these eight
// bytes instead of the tuple.
type KeyIndex uint64

const signBit = 0x80000000

// PackKey packs key and index i, which must fit 32 bits.
func PackKey(key int32, i int) KeyIndex {
	return KeyIndex(uint64(uint32(key)^signBit)<<32 | uint64(uint32(i)))
}

// Key returns the packed key.
func (e KeyIndex) Key() int32 { return int32(uint32(e>>32) ^ signBit) }

// Index returns the packed index.
func (e KeyIndex) Index() int { return int(uint32(e)) }

// KeySorter sorts KeyIndex slices by key, ascending and stable among equal
// keys, with an LSD radix sort over the key's four bytes: O(n) with no
// comparisons. A byte that every key shares costs no pass, so keys drawn from
// a small range sort in fewer than four. The sorter keeps its buffer from one
// call to the next; the zero value is ready to use.
type KeySorter struct {
	buf []KeyIndex
}

// Sort sorts v in place.
func (s *KeySorter) Sort(v []KeyIndex) {
	n := len(v)
	if n < 2 {
		return
	}
	var count [4][256]int
	for _, e := range v {
		k := uint32(e >> 32)
		count[0][k&0xff]++
		count[1][k>>8&0xff]++
		count[2][k>>16&0xff]++
		count[3][k>>24]++
	}
	if cap(s.buf) < n {
		s.buf = make([]KeyIndex, n)
	}
	src, dst := v, s.buf[:n]
	for d := range count {
		c := &count[d]
		shift := 32 + 8*d
		if c[src[0]>>shift&0xff] == n {
			continue // every key has this byte
		}
		pos := 0
		for b, k := range c {
			c[b] = pos
			pos += k
		}
		for _, e := range src {
			b := e >> shift & 0xff
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &v[0] {
		copy(v, src)
	}
}

// SortByAttr sorts tuples by attribute k, ascending and stable among equal
// keys: the keys are radix-sorted with their indices and the tuples gathered
// in a single pass — far cheaper than a comparison sort that swaps 52-byte
// structs O(n log n) times.
func SortByAttr(tuples []Tuple, k Attr) {
	n := len(tuples)
	if n < 2 {
		return
	}
	order := make([]KeyIndex, n)
	for i := range tuples {
		order[i] = PackKey(tuples[i].A[k], i)
	}
	var s KeySorter
	s.Sort(order)
	out := make([]Tuple, n)
	for i, e := range order {
		out[i] = tuples[e.Index()]
	}
	copy(tuples, out)
}
