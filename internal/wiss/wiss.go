// Package wiss reproduces the Wisconsin Storage System (WiSS) that Gamma's
// file services are built on (§2, [CHOU85]): structured sequential (heap)
// files, clustered and non-clustered B+-tree indices, an external sort
// utility, and a per-node LRU buffer pool.
//
// Tuples are held in memory (the host machine plays the role of the disk
// platter), but every page access is charged to the owning node's simulated
// drive and CPU, so response times reflect the paper's hardware.
package wiss

import (
	"fmt"

	"gamma/internal/config"
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// RID identifies a tuple by page number and slot within its file.
type RID struct {
	Page int32
	Slot int32
}

// Page is one disk page of tuples. Slots are stable: deletion tombstones a
// slot rather than moving tuples, so RIDs held by secondary indexes stay
// valid across updates.
//
// A frozen page belongs to a machine image (Store.Snapshot): it may be shared
// by any number of restored stores, so it must never be written in place.
// Every mutation path goes through File.mutPage, which clones a frozen page
// before the first write (copy-on-write).
type Page struct {
	Tuples []rel.Tuple
	dead   []bool // nil when every slot is live (the common case)
	frozen bool   // shared with a snapshot image; clone before writing
}

// clone returns a private, writable copy of the page.
func (pg *Page) clone() *Page {
	cl := &Page{Tuples: append([]rel.Tuple(nil), pg.Tuples...)}
	if pg.dead != nil {
		cl.dead = append([]bool(nil), pg.dead...)
	}
	return cl
}

// Live reports whether slot holds a live tuple.
func (pg *Page) Live(slot int) bool {
	return pg.dead == nil || slot >= len(pg.dead) || !pg.dead[slot]
}

// AllLive reports whether no slot of the page is tombstoned — the common case,
// which lets a scan loop skip the per-slot Live test.
func (pg *Page) AllLive() bool { return pg.dead == nil }

// Kill tombstones a slot. It reports whether the slot was live.
func (pg *Page) Kill(slot int) bool {
	if !pg.Live(slot) {
		return false
	}
	if pg.dead == nil {
		pg.dead = make([]bool, len(pg.Tuples))
	}
	for len(pg.dead) < len(pg.Tuples) {
		pg.dead = append(pg.dead, false)
	}
	pg.dead[slot] = true
	return true
}

// LiveTuples appends the page's live tuples to dst and returns it.
func (pg *Page) LiveTuples(dst []rel.Tuple) []rel.Tuple {
	if pg.dead == nil {
		return append(dst, pg.Tuples...)
	}
	for i := range pg.Tuples {
		if pg.Live(i) {
			dst = append(dst, pg.Tuples[i])
		}
	}
	return dst
}

// Store is the WiSS instance on one node: a file-id space, the files
// themselves, and the buffer pool in front of the node's drive.
type Store struct {
	node   *nose.Node
	prm    *config.Params
	pool   *BufferPool
	nextID int
	files  map[int]*File
	// cowClones counts pages cloned by copy-on-write since the store was
	// created (always 0 on a store that never restored or froze an image).
	cowClones int64
}

// NewStore creates the storage manager for a node. The node must have a
// drive (diskless processors have no Store; they spool via a remote one).
func NewStore(node *nose.Node, prm *config.Params) *Store {
	if node.Drive == nil {
		panic("wiss: NewStore on diskless node")
	}
	frames := prm.Memory.BufferPoolBytes / prm.PageBytes
	if frames < 4 {
		frames = 4
	}
	return &Store{
		node:  node,
		prm:   prm,
		pool:  NewBufferPool(frames),
		files: make(map[int]*File),
	}
}

// Node returns the owning node.
func (st *Store) Node() *nose.Node { return st.node }

// Params returns the machine parameters.
func (st *Store) Params() *config.Params { return st.prm }

// Pool returns the node's buffer pool.
func (st *Store) Pool() *BufferPool { return st.pool }

// COWClones returns the number of shared (frozen) pages this store has cloned
// on first write since creation.
func (st *Store) COWClones() int64 { return st.cowClones }

// Files returns the number of files the store holds: created and not dropped.
func (st *Store) Files() int { return len(st.files) }

// CreateFile allocates an empty heap file.
func (st *Store) CreateFile(name string) *File {
	st.nextID++
	f := &File{st: st, ID: st.nextID, Name: name}
	st.files[f.ID] = f
	return f
}

// DropFile releases a file and purges its pages from the buffer pool. §4:
// aborting a "retrieve into" only requires deleting the result files — this
// is the cheap QUEL recovery path.
func (st *Store) DropFile(f *File) {
	delete(st.files, f.ID)
	st.pool.InvalidateFile(f.ID)
}

// File is a heap file: a sequence of pages each holding up to
// Params.TuplesPerPage() tuples. If Sorted is set the file is maintained in
// SortKey order (the base of a clustered index).
type File struct {
	st      *Store
	ID      int
	Name    string
	pages   []*Page
	nTuples int
	Sorted  bool
	SortKey rel.Attr
	// Unordered is set when an overflow insert appended a page out of key
	// order; clustered range scans then lose their early-stop guarantee.
	Unordered bool
	// SlotBytes overrides the machine-wide per-tuple page footprint for
	// this file (projected result relations have narrower tuples); 0
	// means Params.SlotBytes.
	SlotBytes int
}

// Pages returns the number of pages in the file.
func (f *File) Pages() int { return len(f.pages) }

// Len returns the number of tuples in the file.
func (f *File) Len() int { return f.nTuples }

// Store returns the owning storage manager.
func (f *File) Store() *Store { return f.st }

func (f *File) String() string {
	return fmt.Sprintf("%s(id=%d pages=%d tuples=%d)", f.Name, f.ID, len(f.pages), f.nTuples)
}

// capacity is tuples per page at the current page size and tuple width.
func (f *File) capacity() int {
	slot := f.SlotBytes
	if slot <= 0 {
		slot = f.st.prm.SlotBytes
	}
	n := f.st.prm.PageBytes / slot
	if n < 1 {
		n = 1
	}
	return n
}

// LoadDirect bulk-places tuples into pages without charging simulated time;
// it is used to set up benchmark relations ("the database already exists"
// when an experiment begins). If sortKey is non-nil the tuples are sorted
// first and the file marked Sorted. The file adopts the slice as its pages'
// backing store: the caller must be done with it.
func (f *File) LoadDirect(tuples []rel.Tuple, sortKey *rel.Attr) {
	if sortKey != nil {
		rel.SortByAttr(tuples, *sortKey)
		f.Sorted, f.SortKey = true, *sortKey
	}
	cap := f.capacity()
	f.pages = nil
	// One backing array for the whole file; each page is a capacity-capped
	// sub-slice, so a later append to one page reallocates instead of
	// clobbering its neighbor.
	for start := 0; start < len(tuples); start += cap {
		end := start + cap
		if end > len(tuples) {
			end = len(tuples)
		}
		pg := &Page{Tuples: tuples[start:end:end]}
		f.pages = append(f.pages, pg)
	}
	f.nTuples = len(tuples)
}

// page returns page i without charging any cost (internal use).
func (f *File) page(i int) *Page { return f.pages[i] }

// mutPage returns page i for writing, cloning it first if it is frozen
// (shared with a snapshot image). The clone replaces the shared page in this
// file's page directory; the image and every other restored store keep the
// original.
func (f *File) mutPage(i int) *Page {
	pg := f.pages[i]
	if !pg.frozen {
		return pg
	}
	cl := pg.clone()
	f.pages[i] = cl
	f.st.cowClones++
	return cl
}

// LoadAppend adds one tuple to the end of the file without charging
// simulated time; callers that model their own insertion costs (the
// Teradata INSERT INTO path) use it for bookkeeping.
func (f *File) LoadAppend(t rel.Tuple) {
	if len(f.pages) == 0 || len(f.pages[len(f.pages)-1].Tuples) >= f.capacity() {
		f.pages = append(f.pages, &Page{})
	}
	pg := f.mutPage(len(f.pages) - 1)
	pg.Tuples = append(pg.Tuples, t)
	f.nTuples++
}

// PageTuples returns the tuples of page i without charging simulated cost
// (verification and test helper); tombstoned slots are included.
func (f *File) PageTuples(i int) []rel.Tuple { return f.pages[i].Tuples }

// Page returns page i without charging simulated cost (verification helper).
func (f *File) Page(i int) *Page { return f.pages[i] }

// ReadPage returns page i, charging buffer-pool CPU and (on a miss) a drive
// read to the calling process.
func (f *File) ReadPage(p *sim.Proc, i int) *Page {
	f.chargeRead(p, i, true)
	return f.pages[i]
}

// ReadPageAsync issues the drive read for page i without blocking and
// returns the page plus the simulated time at which it is ready. Used for
// double-buffered sequential scans: issue page i+1 while processing page i.
func (f *File) ReadPageAsync(p *sim.Proc, i int) (*Page, sim.Time) {
	ready := f.chargeRead(p, i, false)
	return f.pages[i], ready
}

func (f *File) chargeRead(p *sim.Proc, i int, block bool) sim.Time {
	st := f.st
	st.node.UseCPU(p, st.prm.Engine.InstrPerPageIO)
	if st.pool.Get(f.ID, i) {
		return p.Now() // buffer hit: no I/O
	}
	st.pool.Put(f.ID, i)
	if block {
		st.node.Drive.Read(p, f.ID, i, st.prm.PageBytes)
		return p.Now()
	}
	return st.node.Drive.ReadAsync(f.ID, i, st.prm.PageBytes)
}

// WritePage writes page i back (read-modify-write path of update queries).
func (f *File) WritePage(p *sim.Proc, i int) {
	st := f.st
	st.node.UseCPU(p, st.prm.Engine.InstrPerPageIO)
	st.node.Drive.Write(p, f.ID, i, st.prm.PageBytes)
	st.pool.Put(f.ID, i)
}

// FetchRID returns the tuple at rid, charging a page read.
func (f *File) FetchRID(p *sim.Proc, rid RID) rel.Tuple {
	pg := f.ReadPage(p, int(rid.Page))
	return pg.Tuples[rid.Slot]
}

// UpdateRID overwrites the tuple at rid in place (read page, modify, write).
func (f *File) UpdateRID(p *sim.Proc, rid RID, t rel.Tuple) {
	f.chargeRead(p, int(rid.Page), true)
	pg := f.mutPage(int(rid.Page))
	pg.Tuples[rid.Slot] = t
	f.WritePage(p, int(rid.Page))
}

// DeleteRID tombstones the tuple at rid (read page, mark, write back).
// Slots are stable, so index entries for other tuples remain valid; index
// entries for the deleted tuple must be removed by the caller.
func (f *File) DeleteRID(p *sim.Proc, rid RID) {
	f.chargeRead(p, int(rid.Page), true)
	pg := f.mutPage(int(rid.Page))
	if pg.Kill(int(rid.Slot)) {
		f.nTuples--
	}
	f.WritePage(p, int(rid.Page))
}

// InsertIntoPage places t in the first free slot of page pageNo, reporting
// failure if the page is full. Used for clustered (sorted) files: the tuple
// joins the page its key range maps to, preserving page-level clustering.
func (f *File) InsertIntoPage(p *sim.Proc, pageNo int, t rel.Tuple) (RID, bool) {
	pg := f.ReadPage(p, pageNo)
	if len(pg.Tuples) >= f.capacity() {
		return RID{}, false
	}
	pg = f.mutPage(pageNo)
	pg.Tuples = append(pg.Tuples, t)
	f.nTuples++
	f.WritePage(p, pageNo)
	return RID{Page: int32(pageNo), Slot: int32(len(pg.Tuples) - 1)}, true
}

// AppendNewPage creates a fresh page at the end of the file holding t (the
// overflow path when a clustered page is full) and returns its RID.
func (f *File) AppendNewPage(p *sim.Proc, t rel.Tuple) RID {
	if f.Sorted {
		f.Unordered = true
	}
	pageNo := len(f.pages)
	f.pages = append(f.pages, &Page{Tuples: []rel.Tuple{t}})
	f.nTuples++
	st := f.st
	st.node.UseCPU(p, st.prm.Engine.InstrPerPageIO)
	st.node.Drive.Write(p, f.ID, pageNo, st.prm.PageBytes)
	st.pool.Put(f.ID, pageNo)
	return RID{Page: int32(pageNo), Slot: 0}
}

// Appender buffers tuples into a page image and writes each page as it
// fills. Store operators and spool writers use it; Close flushes the final
// partial page and waits for all outstanding writes.
type Appender struct {
	f       *File
	cur     *Page
	lastIO  sim.Time
	written int
}

// NewAppender starts appending at the end of the file.
func (f *File) NewAppender() *Appender { return &Appender{f: f} }

// Append adds one tuple, writing the page to disk when it fills. The write
// is asynchronous (write-behind): the appender only blocks when the drive
// falls an entire page behind.
func (a *Appender) Append(p *sim.Proc, t rel.Tuple) {
	f := a.f
	if a.cur == nil {
		a.cur = &Page{Tuples: make([]rel.Tuple, 0, f.capacity())}
	}
	a.cur.Tuples = append(a.cur.Tuples, t)
	f.nTuples++
	a.written++
	if len(a.cur.Tuples) == f.capacity() {
		a.flush(p)
	}
}

// Room returns how many more tuples fit before Append writes the page out:
// the Append that finds Room() == 1 is the one that may block.
func (a *Appender) Room() int {
	if a.cur == nil {
		return a.f.capacity()
	}
	return a.f.capacity() - len(a.cur.Tuples)
}

func (a *Appender) flush(p *sim.Proc) {
	f := a.f
	st := f.st
	pageNo := len(f.pages)
	f.pages = append(f.pages, a.cur)
	a.cur = nil
	st.node.UseCPU(p, st.prm.Engine.InstrPerPageIO)
	// Wait for the previous write-behind to finish before issuing the
	// next (one page of write buffering).
	p.WaitUntil(a.lastIO)
	a.lastIO = st.node.Drive.WriteAsync(f.ID, pageNo, st.prm.PageBytes)
	st.pool.Put(f.ID, pageNo)
}

// Close flushes the final partial page and blocks until the drive is idle on
// this appender's writes. Returns the number of tuples appended.
func (a *Appender) Close(p *sim.Proc) int {
	if a.cur != nil && len(a.cur.Tuples) > 0 {
		a.flush(p)
	}
	p.WaitUntil(a.lastIO)
	return a.written
}

// Scanner iterates a file's tuples sequentially with one page of read-ahead
// (the drive fetches page i+1 while the CPU works on page i).
type Scanner struct {
	f        *File
	nextPage int
	cur      *Page
	curReady sim.Time
	slot     int
	started  bool
}

// NewScanner returns a scanner positioned before the first tuple.
func (f *File) NewScanner() *Scanner { return &Scanner{f: f} }

// NewScannerAt returns a scanner positioned at the start of page pageNo
// (used by clustered-index range scans).
func (f *File) NewScannerAt(pageNo int) *Scanner { return &Scanner{f: f, nextPage: pageNo} }

// NextPage advances to the next page and returns it, or nil at EOF. The
// caller processes the returned page's tuples, charging its own CPU.
func (s *Scanner) NextPage(p *sim.Proc) *Page {
	f := s.f
	if !s.started {
		s.started = true
		if s.nextPage >= len(f.pages) {
			return nil
		}
		s.cur, s.curReady = f.ReadPageAsync(p, s.nextPage)
		s.nextPage++
	}
	if s.cur == nil {
		return nil
	}
	pg, ready := s.cur, s.curReady
	// Prefetch the next page before blocking on the current one.
	if s.nextPage < len(f.pages) {
		s.cur, s.curReady = f.ReadPageAsync(p, s.nextPage)
		s.nextPage++
	} else {
		s.cur = nil
	}
	p.WaitUntil(ready)
	return pg
}

// WrapScanner is a circular page cursor: it starts at an arbitrary page and
// wraps past the end of the file back to page 0, never terminating on its
// own. Shared scans use it — each rider tracks how many pages it has seen
// and detaches after a full revolution, while the cursor itself keeps
// turning for later arrivals. The one-page read-ahead state lives in the
// scanner, not the driving process, so the cursor can be handed between
// processes without losing a pending prefetch.
type WrapScanner struct {
	f          *File
	next       int
	pending    *Page
	pendingIdx int
	pendingAt  sim.Time
	hasPending bool
}

// NewWrapScanner returns a circular cursor positioned at page start
// (modulo the file length).
func (f *File) NewWrapScanner(start int) *WrapScanner {
	ws := &WrapScanner{f: f}
	if n := len(f.pages); n > 0 {
		ws.next = ((start % n) + n) % n
	}
	return ws
}

// NextIdx returns the page number the next NextPage call will deliver.
func (ws *WrapScanner) NextIdx() int { return ws.next }

// NextPage reads the cursor's next page (wrapping at EOF), optionally
// issuing a read-ahead for the page after it, and advances the cursor.
// Returns nil only for an empty file.
func (ws *WrapScanner) NextPage(p *sim.Proc, prefetch bool) *Page {
	f := ws.f
	n := len(f.pages)
	if n == 0 {
		return nil
	}
	idx := ws.next
	ws.next = (idx + 1) % n
	var pg *Page
	var ready sim.Time
	if ws.hasPending && ws.pendingIdx == idx {
		pg, ready = ws.pending, ws.pendingAt
	} else {
		pg, ready = f.ReadPageAsync(p, idx)
	}
	ws.hasPending = false
	if prefetch {
		ws.pending, ws.pendingAt = f.ReadPageAsync(p, ws.next)
		ws.pendingIdx = ws.next
		ws.hasPending = true
	}
	p.WaitUntil(ready)
	return pg
}
