// Package core implements the Gamma database machine (§2): a shared-nothing
// multiprocessor engine in which relations are horizontally partitioned
// across all disk drives, operators run as self-scheduling processes
// connected by split tables, and queries execute in dataflow fashion under
// the control of a scheduler process.
//
// Everything executes for real — real tuples, real B-trees, real hash
// tables — on the simulated hardware of internal/sim, internal/disk, and
// internal/nose, so results are exact and response times reflect the
// calibrated 1988 cost model.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"gamma/internal/config"
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wiss"
)

// LoadSeed is the hash seed used when declustering relations at load time.
// Split tables reuse it for joins on the partitioning attribute (§6.2.1),
// which is what lets Local joins short-circuit; overflow resolution switches
// to different seeds (§6.2.2).
const LoadSeed uint64 = 1

// PartStrategy is one of Gamma's four tuple-declustering strategies (§2).
type PartStrategy int

const (
	// RoundRobin distributes tuples cyclically; the default for relations
	// created as the result of a query.
	RoundRobin PartStrategy = iota
	// Hashed applies a randomizing function to the key attribute.
	Hashed
	// RangeUser partitions by user-specified key ranges.
	RangeUser
	// RangeUniform partitions by system-computed ranges that distribute
	// tuples uniformly.
	RangeUniform
)

func (s PartStrategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case Hashed:
		return "hashed"
	case RangeUser:
		return "range(user)"
	default:
		return "range(uniform)"
	}
}

// Machine is one Gamma configuration: a host, a scheduling processor, n
// processors with disks, and m diskless processors on a shared token ring.
type Machine struct {
	Sim      *sim.Sim
	Prm      *config.Params
	Net      *nose.Network
	Host     *nose.Node
	Sched    *nose.Node
	Disk     []*nose.Node // processors with disk drives
	Diskless []*nose.Node // join/aggregate processors
	stores   map[int]*wiss.Store
	catalog  map[string]*Relation
	loads    int // relations catalogued so far: stamps Relation.seq
	nextRes  int
	nextQID  int
	rec      *Recovery

	// Fault/failover state (see fault-tolerance methods in fault.go).
	mirrored bool
	ftDetect sim.Dur       // operator-silence detection timeout; 0 = failover off
	procs    [][]*sim.Proc // live node-bound processes, by node ID
	crashes  []int         // crash count by node ID (bumped by CrashDisk)
}

// NewMachine builds a machine with nDisk disk processors and nDiskless
// diskless processors (§2's standard configuration is 8 + 8, plus the
// scheduling processor and the host).
func NewMachine(s *sim.Sim, prm *config.Params, nDisk, nDiskless int) *Machine {
	if nDisk < 1 {
		panic("core: need at least one disk processor")
	}
	m := &Machine{
		Sim:     s,
		Prm:     prm,
		Net:     nose.NewNetwork(s, prm.Net, prm.CPU),
		stores:  make(map[int]*wiss.Store),
		catalog: make(map[string]*Relation),
	}
	m.Host = m.Net.AddNode(false, prm.Disk)
	m.Sched = m.Net.AddNode(false, prm.Disk)
	for i := 0; i < nDisk; i++ {
		nd := m.Net.AddNode(true, prm.Disk)
		m.Disk = append(m.Disk, nd)
		m.stores[nd.ID] = wiss.NewStore(nd, prm)
	}
	for i := 0; i < nDiskless; i++ {
		nd := m.Net.AddNode(false, prm.Disk)
		nd.SpoolNode = m.Disk[i%nDisk]
		m.Diskless = append(m.Diskless, nd)
	}
	m.procs = make([][]*sim.Proc, len(m.Net.Nodes()))
	m.crashes = make([]int, len(m.Net.Nodes()))
	return m
}

// EnableTrace installs a new structured event collector on the machine's
// simulation, in place of any sink installed before, and returns it. Every
// subsequent query emits the typed event stream (resource service intervals,
// disk ops, packets, operator and query spans) into the collector. The
// bottleneck verdict does not need it: every Result's Counters classify the
// query, traced or not. Tracing changes no simulated behavior: events are
// recorded synchronously at the instants the simulation already passes
// through.
func (m *Machine) EnableTrace() *trace.Collector {
	col := trace.NewCollector()
	m.Sim.SetSink(col)
	return col
}

// StoreOf returns the WiSS instance of a disk node (nil for diskless nodes).
func (m *Machine) StoreOf(nd *nose.Node) *wiss.Store { return m.stores[nd.ID] }

// Relation returns a catalogued relation by name.
func (m *Machine) Relation(name string) (*Relation, bool) {
	r, ok := m.catalog[name]
	return r, ok
}

// Relations lists catalogued relation names in sorted order.
func (m *Machine) Relations() []string {
	var names []string
	for n := range m.catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ResetPools empties every buffer pool, so the next query runs cold —
// matching the paper's single-user measurement methodology.
func (m *Machine) ResetPools() {
	for _, st := range m.stores {
		st.Pool().Reset()
	}
}

// PoolStats sums the cumulative buffer-pool hit/miss counters across every
// disk node's store (counters survive ResetPools; see BufferPool.Stats).
func (m *Machine) PoolStats() (hits, misses int64) {
	for _, nd := range m.Disk {
		h, ms := m.stores[nd.ID].Pool().Stats()
		hits += h
		misses += ms
	}
	return hits, misses
}

// COWClones sums the copy-on-write page-clone counters across every disk
// node's store: how many frozen (snapshot-shared) pages this machine has had
// to privatize. Zero on a machine whose workload never wrote a shared page.
func (m *Machine) COWClones() int64 {
	var total int64
	for _, nd := range m.Disk {
		total += m.stores[nd.ID].COWClones()
	}
	return total
}

// Relation is a horizontally partitioned relation.
type Relation struct {
	Name     string
	N        int
	Strategy PartStrategy
	PartAttr rel.Attr
	// Bounds holds, for range strategies, the inclusive upper bound of
	// each fragment's key range.
	Bounds []int32
	// Width is the logical tuple width in bytes; 0 means the full
	// 208-byte Wisconsin tuple. Projected result relations are narrower.
	Width int
	Frags []*Fragment
	// Backups, when the machine is mirrored, holds the chained-declustered
	// replica of each fragment: Backups[i] is a full copy of Frags[i]'s
	// data and indexes on the next disk node, so the loss of any single
	// disk node leaves every fragment readable. Nil otherwise.
	Backups []*Fragment
	m       *Machine
	seq     int // load order: the machine's seq-th relation catalogued
}

// width resolves the relation's logical tuple width.
func (r *Relation) width(m *Machine) int {
	if r.Width > 0 {
		return r.Width
	}
	return m.Prm.TupleBytes
}

// Fragment is the portion of a relation stored at one disk node.
type Fragment struct {
	Node    *nose.Node
	File    *wiss.File
	Indexes map[rel.Attr]*wiss.BTree
}

// Index returns the index on attr at fragment 0 (all fragments are indexed
// identically), if one exists.
func (r *Relation) Index(attr rel.Attr) (*wiss.BTree, bool) {
	if len(r.Frags) == 0 {
		return nil, false
	}
	bt, ok := r.Frags[0].Indexes[attr]
	return bt, ok
}

// ClusteredOn reports whether the relation has a clustered index on attr.
func (r *Relation) ClusteredOn(attr rel.Attr) bool {
	bt, ok := r.Index(attr)
	return ok && bt.Kind == wiss.Clustered
}

// LoadSpec describes how to create and index a relation.
type LoadSpec struct {
	Name     string
	Strategy PartStrategy
	PartAttr rel.Attr
	// Bounds: for RangeUser, the inclusive upper bound per disk node
	// (the final bound is implicitly +inf).
	Bounds []int32
	// ClusteredIndex, if set, sorts each fragment on the attribute and
	// builds a clustered B-tree (the paper clusters on unique1).
	ClusteredIndex *rel.Attr
	// NonClusteredIndexes lists dense secondary index attributes (the
	// paper indexes unique2).
	NonClusteredIndexes []rel.Attr
}

// Load creates a relation from tuples per the spec. Loading takes no
// simulated time: experiments begin with the database in place (§4). The
// name must not be catalogued already.
func (m *Machine) Load(spec LoadSpec, tuples []rel.Tuple) *Relation {
	if _, taken := m.catalog[spec.Name]; taken {
		panic(fmt.Sprintf("core: Load %q: %v", spec.Name, ErrNameTaken))
	}
	k := len(m.Disk)
	r := &Relation{
		Name:     spec.Name,
		N:        len(tuples),
		Strategy: spec.Strategy,
		PartAttr: spec.PartAttr,
		m:        m,
	}
	// Each tuple's site first, then one copy into partitions of exactly the
	// right size: the fragment files adopt them.
	site := make([]int32, len(tuples))
	switch spec.Strategy {
	case RoundRobin:
		for i := range site {
			site[i] = int32(i % k)
		}
	case Hashed:
		for i := range tuples {
			site[i] = int32(rel.Hash64(tuples[i].A[spec.PartAttr], LoadSeed) % uint64(k))
		}
	case RangeUser:
		if len(spec.Bounds) != k-1 && len(spec.Bounds) != k {
			panic(fmt.Sprintf("core: RangeUser needs %d or %d bounds, got %d", k-1, k, len(spec.Bounds)))
		}
		r.Bounds = rangeBounds(spec.Bounds, k)
	case RangeUniform:
		r.Bounds = uniformBounds(tuples, spec.PartAttr, k)
	}
	if r.Bounds != nil {
		for i := range tuples {
			site[i] = int32(rangeSite(r.Bounds, tuples[i].A[spec.PartAttr]))
		}
	}
	parts := rel.Partition(tuples, site, k)
	for i, nd := range m.Disk {
		r.Frags = append(r.Frags, m.buildFragment(nd, spec.Name, parts[i], spec))
	}
	if m.mirrored {
		// Chained declustering: fragment i's backup lives on disk node
		// (i+1) mod k, fully indexed, so node i's loss leaves both its
		// primary (via the backup on i+1) and its backup duty (fragment
		// i-1's primary on node i-1) covered by distinct survivors.
		// The backup adopts the primary's image, copy-on-write.
		for i, fr := range r.Frags {
			fi := m.imageFragment(fr)
			fi.site = (i + 1) % k
			r.Backups = append(r.Backups, m.attachFragment(spec.Name+".bak", fi))
		}
	}
	m.catalogue(r)
	return r
}

// buildFragment materializes one fragment — file, optional clustering sort,
// and indexes — on a disk node (load time is not simulated, §4). The file
// adopts tuples as its storage.
func (m *Machine) buildFragment(nd *nose.Node, fileName string, tuples []rel.Tuple, spec LoadSpec) *Fragment {
	st := m.stores[nd.ID]
	f := st.CreateFile(fileName)
	var sortKey *rel.Attr
	if spec.ClusteredIndex != nil {
		sortKey = spec.ClusteredIndex
	}
	f.LoadDirect(tuples, sortKey)
	frag := &Fragment{Node: nd, File: f, Indexes: map[rel.Attr]*wiss.BTree{}}
	if spec.ClusteredIndex != nil {
		frag.Indexes[*spec.ClusteredIndex] = wiss.NewBTree(f, *spec.ClusteredIndex, wiss.Clustered)
	}
	for _, a := range spec.NonClusteredIndexes {
		frag.Indexes[a] = wiss.NewBTree(f, a, wiss.NonClustered)
	}
	return frag
}

// rangeBounds normalizes user bounds to one inclusive upper bound per site,
// the last being MaxInt32.
func rangeBounds(user []int32, k int) []int32 {
	b := append([]int32(nil), user...)
	for len(b) < k {
		b = append(b, 1<<31-1)
	}
	b[k-1] = 1<<31 - 1
	return b[:k]
}

// uniformBounds computes bounds so each site gets ~len(tuples)/k tuples.
func uniformBounds(tuples []rel.Tuple, attr rel.Attr, k int) []int32 {
	vals := make([]int32, len(tuples))
	for i, t := range tuples {
		vals[i] = t.Get(attr)
	}
	slices.Sort(vals)
	b := make([]int32, k)
	for i := 0; i < k-1; i++ {
		idx := (i + 1) * len(vals) / k
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		b[i] = vals[idx]
	}
	b[k-1] = 1<<31 - 1
	return b
}

// rangeSite locates the fragment whose inclusive upper bound covers v.
// Bounds are sorted, so this is a binary search.
func rangeSite(bounds []int32, v int32) int {
	if i := sort.Search(len(bounds), func(i int) bool { return v <= bounds[i] }); i < len(bounds) {
		return i
	}
	return len(bounds) - 1
}

// newResultRelation registers an (initially empty) result relation whose
// fragments live on every disk node; results are distributed round-robin,
// Gamma's default for relations created by a query (§2). width narrows the
// stored tuples (projection); 0 keeps full tuples. With no surviving disk
// node it returns *ErrUnavailable — the query fails, the machine survives.
// A name already catalogued is ErrNameTaken; an automatic "resultN" name
// skips taken ones.
func (m *Machine) newResultRelation(name string, width int) (*Relation, error) {
	if name == "" {
		for taken := true; taken; _, taken = m.catalog[name] {
			m.nextRes++
			name = fmt.Sprintf("result%d", m.nextRes)
		}
	} else if _, taken := m.catalog[name]; taken {
		return nil, fmt.Errorf("core: result %q: %w", name, ErrNameTaken)
	}
	r := &Relation{Name: name, Strategy: RoundRobin, PartAttr: rel.Unique1, m: m}
	if width > 0 && width < m.Prm.TupleBytes {
		r.Width = width
	}
	slotOverhead := m.Prm.SlotBytes - m.Prm.TupleBytes
	for _, nd := range m.Disk {
		if !m.driveUp(nd) {
			// Degraded mode: results land only on surviving drives.
			continue
		}
		st := m.stores[nd.ID]
		f := st.CreateFile(name)
		if r.Width > 0 {
			f.SlotBytes = r.Width + slotOverhead
		}
		r.Frags = append(r.Frags, &Fragment{Node: nd, File: f, Indexes: map[rel.Attr]*wiss.BTree{}})
	}
	if len(r.Frags) == 0 {
		return nil, &ErrUnavailable{Rel: name}
	}
	m.catalogue(r)
	return r, nil
}

// ErrNameTaken is why a relation cannot be created under a name the catalog
// already holds: a query naming its result so ends with it wrapped in
// Result.Err, and Load panics with it.
var ErrNameTaken = errors.New("a relation of that name is already catalogued")

// catalogue enters r under its name, stamped with its load order.
func (m *Machine) catalogue(r *Relation) {
	m.loads++
	r.seq = m.loads
	m.catalog[r.Name] = r
}

// Drop removes a relation and its files (the QUEL abort/cleanup path).
func (m *Machine) Drop(name string) {
	r, ok := m.catalog[name]
	if !ok {
		return
	}
	for _, fr := range r.Frags {
		m.stores[fr.Node.ID].DropFile(fr.File)
	}
	for _, fr := range r.Backups {
		m.stores[fr.Node.ID].DropFile(fr.File)
	}
	delete(m.catalog, name)
}

// Count returns the total number of tuples across all fragments.
func (r *Relation) Count() int {
	n := 0
	for _, fr := range r.Frags {
		n += fr.File.Len()
	}
	return n
}

// AllTuples gathers every live tuple (test/verification helper; no cost).
func (r *Relation) AllTuples() []rel.Tuple {
	var out []rel.Tuple
	for _, fr := range r.Frags {
		for i := 0; i < fr.File.Pages(); i++ {
			out = fr.File.Page(i).LiveTuples(out)
		}
	}
	return out
}
