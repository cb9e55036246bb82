// Package teradata simulates the Teradata DBC/1012 database machine the
// paper uses as its baseline (§3): 4 Interface Processors and 20 Access
// Module Processors on a Y-net, with hash files as the only physical
// organization.
//
// The simulator reproduces the four software properties the paper's analysis
// identifies as decisive:
//
//  1. Relations are hash-partitioned on the primary key and stored in
//     hash-key order; exact-match queries cost one disk access, but there is
//     no clustered index, so every range selection scans the file.
//  2. Secondary indices are dense and themselves hashed, so a range query
//     over an indexed attribute scans the entire index (§5.1's "puzzling"
//     Table 1 rows).
//  3. Joins redistribute both relations by hashing the join attribute; each
//     AMP stores arriving tuples in temporary files in hash-key order
//     (expensive per tuple) and then sort-merge joins them. Joins on the
//     primary key skip redistribution (25-50% faster, §6.1).
//  4. INSERT INTO logs every inserted tuple (at least 3 I/Os each, §4), so
//     storing a query's result dominates many response times.
package teradata

import (
	"fmt"

	"gamma/internal/config"
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wiss"
)

// hashSeed is the Teradata primary-key hash function.
const hashSeed uint64 = 0x7e4ada7a

// Machine is one DBC/1012 configuration.
type Machine struct {
	Sim     *sim.Sim
	Prm     *config.Params
	ampPrm  config.Params // derived parameters for AMP-side storage
	Net     *nose.Network
	Host    *nose.Node
	AMPs    []*nose.Node
	stores  map[int]*wiss.Store
	catalog map[string]*Relation
	ioSeq   int // see randPage
	queries int // the queries run, for the ids of their trace spans
}

// ampParams derives the parameter set AMP-side WiSS machinery runs with:
// the Intel 80286 CPU, the Hitachi drives, and the Teradata page size.
func ampParams(p *config.Params) config.Params {
	d := *p
	d.CPU = config.CPU{MIPS: p.Tera.MIPS}
	d.PageBytes = p.Tera.PageBytes
	d.Disk = config.Disk{
		SeqPos:  p.Tera.SeqPos,
		RandPos: p.Tera.RandPos,
		USPerKB: p.Tera.USPerKB,
	}
	d.Net.RingUSPerKB = p.Tera.YNetUSPerKB
	// The Y-net interfaces are not Unibus-limited; approximate them as
	// matching the net's aggregate rate.
	d.Net.NICUSPerKB = p.Tera.YNetUSPerKB
	return d
}

// NewMachine builds the paper's test configuration (§3): 20 AMPs, each
// modeled with one drive standing in for its two 525 MB Hitachi DSUs.
func NewMachine(s *sim.Sim, prm *config.Params) *Machine {
	m := &Machine{
		Sim:     s,
		Prm:     prm,
		ampPrm:  ampParams(prm),
		stores:  make(map[int]*wiss.Store),
		catalog: make(map[string]*Relation),
	}
	m.Net = nose.NewNetwork(s, m.ampPrm.Net, m.ampPrm.CPU)
	m.Host = m.Net.AddNode(false, m.ampPrm.Disk)
	for i := 0; i < prm.Tera.AMPs; i++ {
		nd := m.Net.AddNode(true, m.ampPrm.Disk)
		m.AMPs = append(m.AMPs, nd)
		m.stores[nd.ID] = wiss.NewStore(nd, &m.ampPrm)
	}
	return m
}

// Relation is a hash-partitioned Teradata relation.
type Relation struct {
	Name    string
	N       int
	KeyAttr rel.Attr // the primary (hash) key
	Frags   []*Fragment
	// SecondaryOn lists dense secondary index attributes.
	Secondary map[rel.Attr]bool
}

// Fragment is one AMP's portion: the base file in hash-key order plus the
// local rows of any dense secondary index (modeled as entry counts; the
// index rows are themselves hashed, so only their volume matters — a range
// query must scan all of them, §3).
type Fragment struct {
	Node *nose.Node
	File *wiss.File
}

// Load creates a relation hash-partitioned on key across all AMPs. Loading
// charges no simulated time.
func (m *Machine) Load(name string, key rel.Attr, secondary []rel.Attr, tuples []rel.Tuple) *Relation {
	k := len(m.AMPs)
	site := make([]int32, len(tuples))
	for i := range tuples {
		site[i] = int32(rel.Hash64(tuples[i].A[key], hashSeed) % uint64(k))
	}
	parts := rel.Partition(tuples, site, k) // exact sizes: the AMPs' files adopt them
	r := &Relation{Name: name, N: len(tuples), KeyAttr: key, Secondary: map[rel.Attr]bool{}}
	for _, a := range secondary {
		r.Secondary[a] = true
	}
	for i, nd := range m.AMPs {
		st := m.stores[nd.ID]
		f := st.CreateFile(name)
		f.LoadDirect(parts[i], nil)
		r.Frags = append(r.Frags, &Fragment{Node: nd, File: f})
	}
	m.catalog[name] = r
	return r
}

// RelationImage is an immutable image of one loaded relation's hash files,
// one per AMP. It references no machine, so any number of machines — and
// any number of names on one machine: on the DBC/1012 a relation with
// secondary indices is physically the same hash file as one without, the
// indices being catalog metadata — can attach it and share its pages
// copy-on-write (every write goes through wiss.File's mutPage).
type RelationImage struct {
	n       int
	keyAttr rel.Attr
	files   []*wiss.FileImage
}

// Image captures the relation's files as an immutable image. The relation
// stays usable; its pages are now copy-on-write.
func (r *Relation) Image() *RelationImage {
	img := &RelationImage{n: r.N, keyAttr: r.KeyAttr}
	for _, fr := range r.Frags {
		img.files = append(img.files, fr.File.Snapshot())
	}
	return img
}

// Attach catalogues the imaged relation under name with the given secondary
// indices, exactly as if Load had just built it here: each AMP's store
// allocates the next file id, so ids match a from-scratch Load of the same
// relations in the same order. An image built for a different AMP count, or
// a name already catalogued, is an error and leaves the machine untouched.
func (m *Machine) Attach(name string, secondary []rel.Attr, img *RelationImage) (*Relation, error) {
	if len(img.files) != len(m.AMPs) {
		return nil, fmt.Errorf("teradata: attach %q: image built for %d AMPs, machine has %d",
			name, len(img.files), len(m.AMPs))
	}
	if _, dup := m.catalog[name]; dup {
		return nil, fmt.Errorf("teradata: attach %q: machine with %d AMPs already catalogues a relation of that name",
			name, len(m.AMPs))
	}
	r := &Relation{Name: name, N: img.n, KeyAttr: img.keyAttr, Secondary: map[rel.Attr]bool{}}
	for _, a := range secondary {
		r.Secondary[a] = true
	}
	for i, nd := range m.AMPs {
		f := m.stores[nd.ID].AdoptFile(img.files[i])
		f.Name = name
		r.Frags = append(r.Frags, &Fragment{Node: nd, File: f})
	}
	m.catalog[name] = r
	return r, nil
}

// withSlack is the capacity to give a hash partition expected to hold n
// tuples, so that filling it does not grow it: hashing spreads evenly, but
// not exactly.
func withSlack(n int) int { return n + n/8 + 16 }

// Relation returns a catalogued relation.
func (m *Machine) Relation(name string) (*Relation, bool) {
	r, ok := m.catalog[name]
	return r, ok
}

// ResetPools clears all AMP buffer pools so queries start cold.
func (m *Machine) ResetPools() {
	for _, st := range m.stores {
		st.Pool().Reset()
	}
}

// Result is a Teradata query outcome.
type Result struct {
	Elapsed sim.Dur
	Tuples  int
	// Counters is the machine's activity during the query; its Clock is
	// Elapsed, and its Verdict names the resource that bound the query.
	Counters nose.Counters
}

// role names a node's part in the machine for its counters.
func (m *Machine) role(nd *nose.Node) string {
	if nd == m.Host {
		return "host"
	}
	return "amp"
}

// run executes body as the host process and returns the query's result: the
// tuples body reports, and the counters and elapsed time until the simulation
// drains (so they cover device work handed off without waiting). Traced, the
// query is one span.
func (m *Machine) run(startup sim.Dur, body func(p *sim.Proc) (tuples int)) Result {
	m.ResetPools()
	before := m.Net.Counters(m.role)
	m.queries++
	query := ""
	if m.Sim.Tracing() {
		query = fmt.Sprintf("q%d", m.queries)
		m.Sim.Emit(trace.Event{At: int64(before.Clock), Kind: trace.KindQueryStart, Query: query})
	}
	tuples := 0
	m.Sim.Spawn("tera-host", func(p *sim.Proc) {
		m.Host.CPU.Use(p, startup)
		tuples = body(p)
	})
	m.Sim.Run()
	c := m.Net.Counters(m.role).Sub(before)
	if query != "" {
		m.Sim.Emit(trace.Event{At: int64(m.Sim.Now()), Kind: trace.KindQueryDone, Query: query})
	}
	return Result{Elapsed: c.Clock, Tuples: tuples, Counters: c}
}

// step is every Teradata AMP step's lifecycle, as core's spawnOp is Gamma's:
// body runs, by p (the AMP's own process, or the host's for a hash access or
// an update), as AMP amp's part of step op (its id and kind, unique in the
// query), inside one op-start/op-done span whose N is the count body returns.
func (m *Machine) step(p *sim.Proc, op string, amp int, body func() int) int {
	if !m.Sim.Tracing() {
		return body()
	}
	e := trace.Event{At: int64(p.Now()), Kind: trace.KindOpStart, Op: op, Class: op, Node: m.AMPs[amp].ID, Site: amp}
	p.Emit(e)
	e.Kind, e.Class, e.N = trace.KindOpDone, "", body()
	e.At = int64(p.Now())
	p.Emit(e)
	return e.N
}

// fanout runs fn concurrently on every AMP, one process each and each run one
// step op, blocks the host until all complete, and returns the sum of their
// counts.
func (m *Machine) fanout(p *sim.Proc, op string, fn func(ap *sim.Proc, amp int) int) (n int) {
	done := m.Sim.NewWaitQ("tera-barrier")
	remaining := len(m.AMPs)
	for i := range m.AMPs {
		amp := i
		m.Sim.Spawn("amp", func(ap *sim.Proc) {
			n += m.step(ap, op, amp, func() int { return fn(ap, amp) })
			remaining--
			if remaining == 0 {
				done.WakeAll()
			}
		})
	}
	if remaining > 0 {
		done.Park(p)
	}
	return n
}

// randPage is the page number of a logging, index or temporary-file I/O,
// spaced out from every other so the drive model treats it as random.
func (m *Machine) randPage() int {
	m.ioSeq += 2
	return m.ioSeq
}

// newResult creates the (empty) relation a query's INSERT INTO fills: one
// "result" file per AMP, hashed on unique1.
func (m *Machine) newResult() *Relation {
	out := &Relation{Name: "result", KeyAttr: rel.Unique1, Secondary: map[rel.Attr]bool{}}
	for _, nd := range m.AMPs {
		out.Frags = append(out.Frags, &Fragment{Node: nd, File: m.stores[nd.ID].CreateFile("result")})
	}
	return out
}

// catalogResult publishes a query's result of n tuples under its name and
// drops the files of the result it supersedes, which would otherwise stay in
// their stores for the life of the machine.
func (m *Machine) catalogResult(out *Relation, n int) {
	if old := m.catalog[out.Name]; old != nil {
		for _, fr := range old.Frags {
			m.stores[fr.Node.ID].DropFile(fr.File)
		}
	}
	out.N = n
	m.catalog[out.Name] = out
}

// insertion is the INSERT INTO itinerary of one result tuple arriving at the
// destination AMP chosen by hashing the result's primary key: Y-net transfer
// plus the logging I/Os and CPU (§4). It is a sub-itinerary (sim.Proc.Steps) of
// the producing AMP's process, which strings one after another and is resumed
// once per batch, not once per stage; the destination's drive and CPU
// serialize contention.
type insertion struct {
	m     *Machine
	out   *Relation
	t     *rel.Tuple // the tuple being inserted
	dst   int        // its AMP
	xfer  nose.Bulk
	ios   int // logged I/Os issued so far
	stage int // the stage step takes next; 0 when no insertion is under way
}

const (
	insArrive = 1 + iota
	insLog
)

// start arms the itinerary for tuple t produced on AMP from. t must stay put
// until the insertion completes.
func (x *insertion) start(from int, t *rel.Tuple) {
	m := x.m
	x.t = t
	x.dst = int(rel.Hash64(t.Get(x.out.KeyAttr), hashSeed) % uint64(len(m.AMPs)))
	x.xfer.Start(m.AMPs[from], m.AMPs[x.dst], m.Prm.TupleBytes)
	x.stage = insArrive
}

// step reserves the insertion's next stage and returns its completion time, or
// reports false once the row is stored.
func (x *insertion) step() (sim.Time, bool) {
	m, tc := x.m, &x.m.Prm.Tera
	to := m.AMPs[x.dst]
	switch x.stage {
	case insArrive:
		if at, more := x.xfer.Step(); more {
			return at, true
		}
		x.stage, x.ios = insLog, 0
		return to.ReserveCPU(tc.InstrPerInsert), true
	case insLog:
		if x.ios < tc.InsertIOs {
			// Logging and data-block writes land in distinct areas: random.
			x.ios++
			return to.Drive.ReserveWrite(-1-x.dst, m.randPage(), m.Prm.TupleBytes), true
		}
		x.out.Frags[x.dst].File.LoadAppend(*x.t)
	}
	x.stage = 0
	return 0, false
}

// tempInsert is the itinerary of one tuple of join redistribution: Y-net
// transfer plus the "store in temporary file in hash-key order" cost at the
// receiver (§6), where a reference to the tuple joins dest. A sub-itinerary
// like insertion.
type tempInsert struct {
	m    *Machine
	dest []partition // the temporary files, one per AMP
	t    *rel.Tuple  // the tuple in transit; nil when none is
	key  int32       // its join key
	to   int
	xfer nose.Bulk
}

// start arms the itinerary for tuple t, of join key key, going from one AMP
// to another. t must stay put until the query ends.
func (x *tempInsert) start(from, to int, t *rel.Tuple, key int32) {
	m := x.m
	x.t, x.key, x.to = t, key, to
	x.xfer.Start(m.AMPs[from], m.AMPs[to], m.Prm.TupleBytes)
}

// step reserves the next stage of the transfer and returns its completion
// time, or lands the tuple and reports false.
func (x *tempInsert) step() (sim.Time, bool) {
	if x.t == nil {
		return 0, false
	}
	if at, more := x.xfer.Step(); more {
		return at, true
	}
	// The receiving AMP's work is not acknowledged per tuple: it queues on
	// the destination's CPU and drive (the sort phase that follows reads
	// from the same drive, so unfinished temp writes still delay it).
	m, tc := x.m, &x.m.Prm.Tera
	to := m.AMPs[x.to]
	to.CPU.UseAsync(m.ampPrm.CPU.Time(tc.InstrPerTempInsert))
	for i := 0; i < tc.TempInsertIOs; i++ {
		to.Drive.WriteAsync(-100-x.to, m.randPage(), m.Prm.TupleBytes)
	}
	x.dest[x.to].add(x.t, x.key)
	x.t = nil
	return 0, false
}

// qualifying walks the tuples of a batch — a page, or references in memory —
// that are live and satisfy a predicate, in place.
type qualifying struct {
	tuples    []rel.Tuple
	refs      []*rel.Tuple // the batch, when it is references
	holes     *wiss.Page   // the page, when it has tombstoned slots
	pred      rel.Pred
	next      int
	scanInstr int // scan CPU the batch has yet to pay (see scan, payScan)
}

// batch points the walk at references to tuples, all live.
func (q *qualifying) batch(refs []*rel.Tuple) { q.tuples, q.refs, q.holes, q.next = nil, refs, nil, 0 }

// page points the walk at a page of a file.
func (q *qualifying) page(pg *wiss.Page) {
	q.tuples, q.refs, q.holes, q.next = pg.Tuples, nil, nil, 0
	if !pg.AllLive() {
		q.holes = pg
	}
}

// scan points the walk at a page fresh from a scanner: examining its tuples
// costs instr instructions each, due before the first is looked at.
func (q *qualifying) scan(pg *wiss.Page, instr int) {
	q.page(pg)
	q.scanInstr = instr * len(pg.Tuples)
}

// payScan is the stage that charges the batch's outstanding scan CPU to nd;
// it reports false when nothing is outstanding.
func (q *qualifying) payScan(nd *nose.Node) (sim.Time, bool) {
	if q.scanInstr <= 0 {
		return 0, false
	}
	instr := q.scanInstr
	q.scanInstr = 0
	return nd.ReserveCPU(instr), true
}

// nextTuple returns the next qualifying tuple, or nil when the batch is done.
func (q *qualifying) nextTuple() *rel.Tuple {
	for q.next < len(q.tuples)+len(q.refs) {
		s := q.next
		q.next++
		var t *rel.Tuple
		if q.refs != nil {
			t = q.refs[s]
		} else {
			t = &q.tuples[s]
		}
		if (q.holes == nil || q.holes.Live(s)) && q.pred.MatchRef(t) {
			return t
		}
	}
	return nil
}
