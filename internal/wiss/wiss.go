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

// hollow is every page of a hollow file: a file that keeps the page structure
// of its tuples — how many pages, how many tuples on each — but not the
// tuples, which its owner holds elsewhere (a sort's key arrays, a join's
// tuple references). Its page reads and writes cost what they would for the
// tuples. Frozen, so no write path can change it in place.
var hollow = &Page{frozen: true}

// LoadHollow gives an empty file the page structure of n tuples appended in
// order, holding none of them, without charging simulated time.
func (f *File) LoadHollow(n int) {
	pages := (n + f.capacity() - 1) / f.capacity()
	f.pages = make([]*Page, pages)
	for i := range f.pages {
		f.pages[i] = hollow
	}
	f.nTuples = n
}

// liveAt returns how many live tuples page i holds. A hollow file's pages
// are full but for the last.
func (f *File) liveAt(i int) int {
	pg := f.pages[i]
	switch {
	case pg == hollow:
		return min(f.capacity(), f.nTuples-i*f.capacity())
	case pg.dead == nil:
		return len(pg.Tuples)
	}
	n := 0
	for s := range pg.Tuples {
		if pg.Live(s) {
			n++
		}
	}
	return n
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
	if n := f.capacity(); len(f.pages) == 0 || len(f.pages[len(f.pages)-1].Tuples) >= n {
		f.pages = append(f.pages, &Page{Tuples: make([]rel.Tuple, 0, n)})
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
	var r pageRead
	r.start(f, i, false)
	p.Steps(r.step)
	r.fault()
	return f.pages[i]
}

// pageRead is the stage form of a page read, a sub-itinerary (sim.Proc.Steps):
// the buffer-pool CPU, then on a miss the drive — waited for, or with ahead
// set issued as read-ahead, ready saying when the page is in memory. A read
// that would reach a failed drive ends it with failed set, and fault makes
// that read in the process, where disk.FailedError unwinds it.
type pageRead struct {
	f             *File
	i, stage      int
	ahead, failed bool
	ready         sim.Time
}

func (r *pageRead) start(f *File, i int, ahead bool) {
	*r = pageRead{f: f, i: i, ahead: ahead, stage: 1}
}

func (r *pageRead) step() (sim.Time, bool) {
	st := r.f.st
	switch r.stage {
	case 1: // the buffer-pool CPU
		r.stage = 2
		if instr := st.prm.Engine.InstrPerPageIO; instr > 0 {
			return st.node.ReserveCPU(instr), true
		}
		fallthrough
	case 2:
		r.stage = 0
		r.ready = st.node.Network().Sim().Now()
		if st.pool.Get(r.f.ID, r.i) {
			return 0, false // buffer hit: no I/O
		}
		st.pool.Put(r.f.ID, r.i)
		switch d := st.node.Drive; {
		case d.Failed():
			r.failed = true
		case r.ahead:
			r.ready = d.ReadAsync(r.f.ID, r.i, st.prm.PageBytes)
		default:
			return d.ReserveRead(r.f.ID, r.i, st.prm.PageBytes), true
		}
	}
	return 0, false
}

func (r *pageRead) fault() {
	if r.failed {
		r.failed = false
		r.f.st.node.Drive.ReadAsync(r.f.ID, r.i, r.f.st.prm.PageBytes)
	}
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
	f.ReadPage(p, int(rid.Page))
	pg := f.mutPage(int(rid.Page))
	pg.Tuples[rid.Slot] = t
	f.WritePage(p, int(rid.Page))
}

// DeleteRID tombstones the tuple at rid (read page, mark, write back).
// Slots are stable, so index entries for other tuples remain valid; index
// entries for the deleted tuple must be removed by the caller.
func (f *File) DeleteRID(p *sim.Proc, rid RID) {
	f.ReadPage(p, int(rid.Page))
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
	// A hollow file's page being filled (PutHollow): its tuples, of perPage.
	held, perPage int

	// The page write under way in stage form (see Put, Close).
	stage, pageNo   int
	closing, failed bool
	step            func() (sim.Time, bool)
}

// The stages of a page write.
const (
	writeIdle  = iota
	writePage  // the full page joins the file; its CPU
	writeWait  // one page of write buffering: the previous write must finish
	writeIssue // the write-behind
	writeDrain // Close: the last write must finish
)

// NewAppender starts appending at the end of the file.
func (f *File) NewAppender() *Appender {
	a := &Appender{f: f, perPage: f.capacity()}
	a.step = a.Step
	return a
}

// Append adds one tuple, writing the page to disk when it fills. The write
// is asynchronous (write-behind): the appender only blocks when the drive
// falls an entire page behind.
func (a *Appender) Append(p *sim.Proc, t rel.Tuple) {
	if a.Put(t) {
		p.Steps(a.step)
		a.Fault()
	}
}

// Close flushes the final partial page and blocks until the drive is idle on
// this appender's writes. Returns the number of tuples appended.
func (a *Appender) Close(p *sim.Proc) int {
	a.StartClose()
	p.Steps(a.step)
	a.Fault()
	return a.written
}

// StartClose arms the stage form of Close, which Step then takes.
func (a *Appender) StartClose() {
	a.closing, a.stage = true, writeDrain
	switch {
	case a.held > 0:
		a.cur, a.held, a.stage = hollow, 0, writePage
	case a.cur != nil && len(a.cur.Tuples) > 0:
		a.stage = writePage
	}
}

// Put is the stage form of Append: it adds t and reports whether that filled
// the page, whose write Step then takes as a sub-itinerary (sim.Proc.Steps).
func (a *Appender) Put(t rel.Tuple) bool {
	f := a.f
	if a.cur == nil {
		a.cur = &Page{Tuples: make([]rel.Tuple, 0, f.capacity())}
	}
	a.cur.Tuples = append(a.cur.Tuples, t)
	f.nTuples++
	a.written++
	if len(a.cur.Tuples) < cap(a.cur.Tuples) {
		return false
	}
	a.stage = writePage
	return true
}

// PutHollow is Put for a hollow file (see LoadHollow): it counts one tuple
// and reports whether that filled the page.
func (a *Appender) PutHollow() bool {
	a.f.nTuples++
	a.written++
	if a.held++; a.held < a.perPage {
		return false
	}
	a.cur, a.held, a.stage = hollow, 0, writePage
	return true
}

// Step takes the write's next stage and returns its completion time, or
// reports false once it is done — or at a write that would reach a failed
// drive, which Fault then makes.
func (a *Appender) Step() (sim.Time, bool) {
	f := a.f
	st := f.st
	now := st.node.Network().Sim().Now()
	switch a.stage {
	case writePage:
		a.pageNo = len(f.pages)
		f.pages = append(f.pages, a.cur)
		a.cur = nil
		a.stage = writeWait
		if instr := st.prm.Engine.InstrPerPageIO; instr > 0 {
			return st.node.ReserveCPU(instr), true
		}
		fallthrough
	case writeWait:
		a.stage = writeIssue
		if a.lastIO > now {
			return a.lastIO, true
		}
		fallthrough
	case writeIssue:
		a.stage = writeIdle
		if a.failed = st.node.Drive.Failed(); a.failed {
			return 0, false
		}
		a.lastIO = st.node.Drive.WriteAsync(f.ID, a.pageNo, st.prm.PageBytes)
		st.pool.Put(f.ID, a.pageNo)
		if !a.closing {
			return 0, false
		}
		fallthrough
	case writeDrain:
		a.stage, a.closing = writeIdle, false
		if a.lastIO > now {
			return a.lastIO, true
		}
	}
	return 0, false
}

// Failed reports whether the last write stopped at a failed drive.
func (a *Appender) Failed() bool { return a.failed }

// Fault makes that write in the calling process: it panics with
// disk.FailedError.
func (a *Appender) Fault() {
	if a.failed {
		a.failed = false
		a.f.st.node.Drive.WriteAsync(a.f.ID, a.pageNo, a.f.st.prm.PageBytes)
	}
}

// Scanner iterates a file's tuples sequentially with one page of read-ahead
// (the drive fetches page i+1 while the CPU works on page i), in stage form:
// an advance delivers page idx — from the read-ahead if that was issued for
// idx, else read now — then issues the read-ahead of the page after it, if
// any, and waits for the delivered page: the kernel calls of a blocking
// advance, in its order.
type Scanner struct {
	f    *File
	next int // the page the next advance delivers
	// eof: an advance found no page after the one it delivered.
	eof bool

	pending    *Page // the read-ahead
	pendingIdx int
	pendingAt  sim.Time
	hasPending bool

	// The advance under way (see advance): the page it delivers, and when.
	idx, stage int
	rd         pageRead
	pg         *Page
	ready      sim.Time
	step       func() (sim.Time, bool)
}

// The stages of an advance.
const (
	advIdle = iota
	advStart
	advRead  // reading the page to deliver
	advTake  // issue the read-ahead
	advAhead // the read-ahead
	advWait
)

// NewScanner returns a scanner positioned before the first tuple.
func (f *File) NewScanner() *Scanner { return f.NewScannerAt(0) }

// NewScannerAt returns a scanner positioned at the start of page pageNo
// (used by clustered-index range scans).
func (f *File) NewScannerAt(pageNo int) *Scanner {
	s := &Scanner{f: f, next: pageNo}
	s.step = s.advance
	return s
}

// advance is the stage form of an advance armed by start, a sub-itinerary
// (sim.Proc.Steps): it returns a stage's completion time, or reports false
// once the page is in memory, at EOF, or at a read that found its drive
// failed (see fault).
func (s *Scanner) advance() (sim.Time, bool) {
	f := s.f
	for {
		switch s.stage {
		case advStart:
			s.stage = advTake
			if s.hasPending && s.pendingIdx == s.idx {
				s.pg, s.ready = s.pending, s.pendingAt
			} else {
				s.rd.start(f, s.idx, true)
				s.stage = advRead
			}
		case advRead, advAhead:
			if at, more := s.rd.step(); more {
				return at, true
			}
			if s.rd.failed {
				s.stage, s.pg = advIdle, nil
				return 0, false
			}
			if s.stage == advRead {
				s.pg, s.ready = f.pages[s.idx], s.rd.ready
				s.stage = advTake
				continue
			}
			s.pending, s.pendingIdx, s.pendingAt, s.hasPending = f.pages[s.rd.i], s.rd.i, s.rd.ready, true
			s.stage = advWait
		case advTake:
			s.hasPending = false
			s.stage = advWait
			if s.eof = s.idx+1 >= len(f.pages); !s.eof {
				s.rd.start(f, s.idx+1, true)
				s.stage = advAhead
			}
		case advWait:
			s.stage = advIdle
			if s.ready > f.st.node.Network().Sim().Now() {
				return s.ready, true
			}
			return 0, false
		default:
			return 0, false
		}
	}
}

// fault makes the read that found its drive failed in the calling process:
// it panics with disk.FailedError.
func (s *Scanner) fault() { s.rd.fault() }

// NextPage advances to the next page and returns it, or nil at EOF. The
// caller processes the returned page's tuples, charging its own CPU.
func (s *Scanner) NextPage(p *sim.Proc) *Page {
	s.start()
	p.Steps(s.step)
	s.fault()
	return s.pg
}

// start arms the stage form of NextPage (see advance): s.pg is then the page
// it delivers, nil at EOF or failure.
func (s *Scanner) start() {
	if s.eof || s.next >= len(s.f.pages) {
		s.eof, s.stage, s.pg = true, advIdle, nil
		return
	}
	s.idx, s.stage, s.pg = s.next, advStart, nil
	s.next++
}

// Run makes the rest of the scan one itinerary (sim.Proc.Steps) of p: each
// page goes to begin, in kernel context, and page takes its stages. It ends at
// EOF, or when stop (if set) reports true after a page; a read that found its
// drive failed is made in p, which panics with disk.FailedError.
func (s *Scanner) Run(p *sim.Proc, begin func(pg *Page), page func() (sim.Time, bool), stop func() bool) {
	reading := true
	s.start()
	p.Steps(func() (sim.Time, bool) {
		for {
			if reading {
				if at, more := s.advance(); more {
					return at, true
				}
				if reading = false; s.pg == nil {
					return 0, false
				}
				begin(s.pg)
			}
			if at, more := page(); more {
				return at, true
			}
			if stop != nil && stop() {
				return 0, false
			}
			s.start()
			reading = true
		}
	})
	s.fault()
}
