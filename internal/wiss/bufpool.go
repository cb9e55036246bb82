package wiss

// BufferPool is a per-node LRU page cache. Because tuple data lives in host
// memory either way, the pool tracks only residency: Get reports whether a
// page access is a hit (no simulated I/O) or a miss.
//
// Residency is a page-indexed slice of frame numbers per file (file ids are
// a store's own small integers), and recency an intrusive doubly-linked list
// over the frames (head = LRU victim, tail = MRU), so Get, Put and touch are
// O(1) and hash nothing. Evicted frames are recycled in place and invalidated
// ones through a free list, so steady-state page traffic allocates nothing.
type BufferPool struct {
	limit      int
	frames     []frame   // frames[0] is unused: frame 0 means "none"
	files      [][]int32 // files[file][page] is the page's frame, 0 if not resident
	head, tail int32     // head = least recently used
	free       int32     // invalidated frames (chained via next)
	n          int       // resident pages

	hits, misses int64
}

type frame struct {
	file, page int
	prev, next int32
}

// NewBufferPool creates a pool with the given number of page frames.
func NewBufferPool(frames int) *BufferPool {
	if frames < 1 {
		frames = 1
	}
	return &BufferPool{limit: frames, frames: make([]frame, 1, frames+1)}
}

// frameOf returns the frame holding (file, page), or 0.
func (bp *BufferPool) frameOf(file, page int) int32 {
	if file < len(bp.files) && page < len(bp.files[file]) {
		return bp.files[file][page]
	}
	return 0
}

// Get reports whether (file, page) is resident, updating recency and
// hit/miss counters.
func (bp *BufferPool) Get(file, page int) bool {
	if f := bp.frameOf(file, page); f != 0 {
		bp.touch(f)
		bp.hits++
		return true
	}
	bp.misses++
	return false
}

// Put makes (file, page) resident, evicting the LRU page if the pool is full.
func (bp *BufferPool) Put(file, page int) {
	if f := bp.frameOf(file, page); f != 0 {
		bp.touch(f)
		return
	}
	var f int32
	switch {
	case bp.n >= bp.limit:
		f = bp.head
		bp.unlink(f)
		v := &bp.frames[f]
		bp.files[v.file][v.page] = 0
	case bp.free != 0:
		f = bp.free
		bp.free = bp.frames[f].next
		bp.n++
	default:
		f = int32(len(bp.frames))
		bp.frames = append(bp.frames, frame{})
		bp.n++
	}
	if file >= len(bp.files) {
		bp.files = append(bp.files, make([][]int32, file+1-len(bp.files))...)
	}
	pages := bp.files[file]
	if page >= len(pages) {
		pages = append(pages, make([]int32, page+1-len(pages))...)
		bp.files[file] = pages
	}
	pages[page] = f
	bp.frames[f].file, bp.frames[f].page = file, page
	bp.pushBack(f)
}

// touch moves frame f to the MRU end.
func (bp *BufferPool) touch(f int32) {
	if bp.tail != f {
		bp.unlink(f)
		bp.pushBack(f)
	}
}

func (bp *BufferPool) unlink(f int32) {
	v := &bp.frames[f]
	if v.prev != 0 {
		bp.frames[v.prev].next = v.next
	} else {
		bp.head = v.next
	}
	if v.next != 0 {
		bp.frames[v.next].prev = v.prev
	} else {
		bp.tail = v.prev
	}
	v.prev, v.next = 0, 0
}

func (bp *BufferPool) pushBack(f int32) {
	v := &bp.frames[f]
	v.prev, v.next = bp.tail, 0
	if bp.tail != 0 {
		bp.frames[bp.tail].next = f
	} else {
		bp.head = f
	}
	bp.tail = f
}

// InvalidateFile drops every resident page of the file (file deletion).
func (bp *BufferPool) InvalidateFile(file int) {
	if file >= len(bp.files) {
		return
	}
	for _, f := range bp.files[file] {
		if f != 0 {
			bp.unlink(f)
			bp.frames[f].next = bp.free
			bp.free = f
			bp.n--
		}
	}
	bp.files[file] = nil
}

// Reset empties the pool (used between benchmark queries so every query
// starts cold, matching the paper's single-user methodology).
func (bp *BufferPool) Reset() {
	for f := bp.head; f != 0; {
		v := &bp.frames[f]
		next := v.next
		bp.files[v.file][v.page] = 0
		v.prev, v.next = 0, bp.free
		bp.free = f
		f = next
	}
	bp.head, bp.tail = 0, 0
	bp.n = 0
}

// Stats returns cumulative hit/miss counts.
func (bp *BufferPool) Stats() (hits, misses int64) { return bp.hits, bp.misses }

// Len returns the number of resident pages.
func (bp *BufferPool) Len() int { return bp.n }
