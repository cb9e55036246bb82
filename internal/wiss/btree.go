package wiss

import (
	"sort"

	"gamma/internal/rel"
	"gamma/internal/sim"
)

// IndexKind distinguishes the two WiSS index organizations used in the paper.
type IndexKind int

const (
	// Clustered: the data file is sorted on the key and the B-tree is a
	// sparse index mapping keys to data pages (index order = key order).
	Clustered IndexKind = iota
	// NonClustered: a dense B-tree with one (key, RID) entry per tuple
	// (index order != file order).
	NonClustered
)

func (k IndexKind) String() string {
	if k == Clustered {
		return "clustered"
	}
	return "non-clustered"
}

// BTree is a B+-tree index over one attribute of a heap file. Node accesses
// are charged to the node's drive through the buffer pool, with the tree's
// pages living in their own file-id space so that drive-position modeling
// sees index and data accesses as distinct extents.
type BTree struct {
	st        *Store
	file      *File
	Attr      rel.Attr
	Kind      IndexKind
	idxFileID int
	fanout    int
	root      *bnode
	firstLeaf *bnode
	nextPage  int
	height    int
	entries   int
	// shared marks a tree whose bnodes belong to a snapshot image (or were
	// handed to one): reads are safe, but the first structural mutation must
	// deep-clone the node graph first (ensureOwned).
	shared bool
}

type bnode struct {
	pageNo   int
	leaf     bool
	keys     []int32
	rids     []RID    // leaf, NonClustered: one RID per key
	dataPage []int32  // leaf, Clustered: one data page per key
	children []*bnode // internal
	next     *bnode   // leaf chain
}

// NewBTree builds an index over every tuple currently in f. A Clustered
// index requires f to be sorted on attr (File.LoadDirect with a sort key).
// Building is free in simulated time: benchmarks start with indices already
// in place, as in the paper.
func NewBTree(f *File, attr rel.Attr, kind IndexKind) *BTree {
	st := f.st
	st.nextID++
	t := &BTree{
		st:        st,
		file:      f,
		Attr:      attr,
		Kind:      kind,
		idxFileID: st.nextID,
		fanout:    st.prm.IndexFanout(),
	}
	if t.fanout < 4 {
		t.fanout = 4
	}
	t.bulkBuild()
	return t
}

// File returns the indexed data file.
func (t *BTree) File() *File { return t.file }

// FileID returns the id of the index's own file in its store's id space:
// allocated after the indexed file's, in the order the indexes were built.
func (t *BTree) FileID() int { return t.idxFileID }

// Height returns the number of levels (0 for an empty tree).
func (t *BTree) Height() int { return t.height }

// Entries returns the number of leaf entries.
func (t *BTree) Entries() int { return t.entries }

type entry struct {
	key  int32
	rid  RID
	page int32
}

func (t *BTree) collectEntries() []entry {
	if t.Kind == Clustered {
		es := make([]entry, 0, len(t.file.pages))
		if !t.file.Sorted || t.file.SortKey != t.Attr {
			panic("wiss: clustered index over unsorted file")
		}
		for i, pg := range t.file.pages {
			if len(pg.Tuples) == 0 {
				continue
			}
			es = append(es, entry{key: pg.Tuples[0].Get(t.Attr), page: int32(i)})
		}
		return es
	}
	es := make([]entry, 0, t.file.Len())
	for i, pg := range t.file.pages {
		for s, tp := range pg.Tuples {
			if !pg.Live(s) {
				continue
			}
			es = append(es, entry{key: tp.Get(t.Attr), rid: RID{Page: int32(i), Slot: int32(s)}})
		}
	}
	// Entries were collected in (page, slot) order, so a stable sort on key
	// alone yields the (key, page, slot) total order.
	order := make([]rel.KeyIndex, len(es))
	for i := range es {
		order[i] = rel.PackKey(es[i].key, i)
	}
	var s rel.KeySorter
	s.Sort(order)
	// Permute es in place, a cycle at a time; order[k] = k marks slot k done.
	for i := range order {
		k := i
		for j := order[k].Index(); j != i; j = order[k].Index() {
			es[k], es[j], order[k] = es[j], es[k], rel.PackKey(0, k)
			k = j
		}
		order[k] = rel.PackKey(0, k)
	}
	return es
}

// bulkBuild constructs the tree bottom-up. Internal pages are numbered
// before leaf pages so that a left-to-right leaf walk touches consecutive
// page numbers (sequential on disk).
func (t *BTree) bulkBuild() {
	es := t.collectEntries()
	t.entries = len(es)
	if len(es) == 0 {
		t.root = nil
		t.firstLeaf = nil
		t.height = 0
		return
	}
	// Leaves.
	var leaves []*bnode
	for start := 0; start < len(es); start += t.fanout {
		end := start + t.fanout
		if end > len(es) {
			end = len(es)
		}
		n := &bnode{leaf: true}
		for _, e := range es[start:end] {
			n.keys = append(n.keys, e.key)
			if t.Kind == Clustered {
				n.dataPage = append(n.dataPage, e.page)
			} else {
				n.rids = append(n.rids, e.rid)
			}
		}
		leaves = append(leaves, n)
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	t.firstLeaf = leaves[0]
	// Internal levels.
	level := leaves
	t.height = 1
	for len(level) > 1 {
		var up []*bnode
		for start := 0; start < len(level); start += t.fanout {
			end := start + t.fanout
			if end > len(level) {
				end = len(level)
			}
			n := &bnode{children: append([]*bnode(nil), level[start:end]...)}
			for _, c := range n.children[1:] {
				n.keys = append(n.keys, c.minKey())
			}
			up = append(up, n)
		}
		level = up
		t.height++
	}
	t.root = level[0]
	// Page numbering: internal nodes first (top-down), then leaves
	// left-to-right so leaf chains are sequential extents.
	t.nextPage = 0
	t.numberInternal(t.root)
	for _, l := range leaves {
		l.pageNo = t.nextPage
		t.nextPage++
	}
}

func (n *bnode) minKey() int32 {
	if n.leaf {
		return n.keys[0]
	}
	return n.children[0].minKey()
}

func (t *BTree) numberInternal(n *bnode) {
	if n == nil || n.leaf {
		return
	}
	n.pageNo = t.nextPage
	t.nextPage++
	for _, c := range n.children {
		t.numberInternal(c)
	}
}

// readNode charges one index-page access to the calling process.
func (t *BTree) readNode(p *sim.Proc, n *bnode) {
	st := t.st
	st.node.UseCPU(p, st.prm.Engine.InstrPerIndexNode)
	st.node.UseCPU(p, st.prm.Engine.InstrPerPageIO)
	if st.pool.Get(t.idxFileID, n.pageNo) {
		return
	}
	st.pool.Put(t.idxFileID, n.pageNo)
	st.node.Drive.Read(p, t.idxFileID, n.pageNo, st.prm.PageBytes)
}

// writeNode charges one index-page write.
func (t *BTree) writeNode(p *sim.Proc, n *bnode) {
	st := t.st
	st.node.UseCPU(p, st.prm.Engine.InstrPerPageIO)
	st.node.Drive.Write(p, t.idxFileID, n.pageNo, st.prm.PageBytes)
	st.pool.Put(t.idxFileID, n.pageNo)
}

// descend walks root→leaf toward key, charging a read per level, and
// returns the leaf and the path of internal nodes above it.
func (t *BTree) descend(p *sim.Proc, key int32) (*bnode, []*bnode) {
	if t.root == nil {
		return nil, nil
	}
	var path []*bnode
	n := t.root
	for !n.leaf {
		t.readNode(p, n)
		path = append(path, n)
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
		n = n.children[i]
	}
	t.readNode(p, n)
	return n, path
}

// SearchRIDs returns the RIDs of tuples with the exact key (NonClustered).
func (t *BTree) SearchRIDs(p *sim.Proc, key int32) []RID {
	if t.Kind != NonClustered {
		panic("wiss: SearchRIDs on clustered index")
	}
	var out []RID
	leaf, _ := t.descend(p, key)
	for leaf != nil {
		i := sort.Search(len(leaf.keys), func(i int) bool { return leaf.keys[i] >= key })
		if i == len(leaf.keys) {
			leaf = t.nextLeaf(p, leaf)
			continue
		}
		for ; i < len(leaf.keys) && leaf.keys[i] == key; i++ {
			out = append(out, leaf.rids[i])
		}
		if i < len(leaf.keys) {
			break
		}
		leaf = t.nextLeaf(p, leaf)
	}
	return out
}

func (t *BTree) nextLeaf(p *sim.Proc, leaf *bnode) *bnode {
	if leaf.next == nil {
		return nil
	}
	t.readNode(p, leaf.next)
	return leaf.next
}

// RangeRIDs streams the RIDs of tuples with lo <= key <= hi to emit, walking
// the leaf chain (NonClustered). Every leaf page touched is charged.
func (t *BTree) RangeRIDs(p *sim.Proc, lo, hi int32, emit func(RID)) {
	if t.Kind != NonClustered {
		panic("wiss: RangeRIDs on clustered index")
	}
	leaf, _ := t.descend(p, lo)
	for leaf != nil {
		i := sort.Search(len(leaf.keys), func(i int) bool { return leaf.keys[i] >= lo })
		for ; i < len(leaf.keys); i++ {
			if leaf.keys[i] > hi {
				return
			}
			emit(leaf.rids[i])
		}
		leaf = t.nextLeaf(p, leaf)
	}
}

// StartPage returns the data page at which a clustered range scan for keys
// >= lo must begin, charging the root→leaf traversal.
func (t *BTree) StartPage(p *sim.Proc, lo int32) int {
	if t.Kind != Clustered {
		panic("wiss: StartPage on non-clustered index")
	}
	leaf, _ := t.descend(p, lo)
	if leaf == nil {
		return 0
	}
	i := sort.Search(len(leaf.keys), func(i int) bool { return leaf.keys[i] > lo })
	if i > 0 {
		i--
	}
	return int(leaf.dataPage[i])
}

// InsertEntry adds (key, rid) to a NonClustered index, splitting leaves as
// needed. Charges the traversal reads plus the leaf (and any split) writes.
func (t *BTree) InsertEntry(p *sim.Proc, key int32, rid RID) {
	if t.Kind != NonClustered {
		panic("wiss: InsertEntry on clustered index")
	}
	t.insertLeafEntry(p, key, func(leaf *bnode, i int) {
		leaf.rids = append(leaf.rids, RID{})
		copy(leaf.rids[i+1:], leaf.rids[i:])
		leaf.rids[i] = rid
	})
}

// InsertClusteredEntry adds a (key -> data page) entry to a Clustered index,
// registering a new data page created by an overflow insert.
func (t *BTree) InsertClusteredEntry(p *sim.Proc, key int32, page int32) {
	if t.Kind != Clustered {
		panic("wiss: InsertClusteredEntry on non-clustered index")
	}
	t.insertLeafEntry(p, key, func(leaf *bnode, i int) {
		leaf.dataPage = append(leaf.dataPage, 0)
		copy(leaf.dataPage[i+1:], leaf.dataPage[i:])
		leaf.dataPage[i] = page
	})
}

// ensureOwned gives the tree a private copy of its node graph before the
// first mutation of a shared (snapshot-backed) tree. Cloning charges no
// simulated time: it models nothing the 1988 machine did — it is host-side
// bookkeeping that keeps the frozen image immutable.
func (t *BTree) ensureOwned() {
	if !t.shared {
		return
	}
	t.shared = false
	if t.root == nil {
		return
	}
	clones := make(map[*bnode]*bnode)
	t.root = cloneSubtree(t.root, clones)
	// The leaf chain threads through the clones in the same order.
	for old, cl := range clones {
		if old.next != nil {
			cl.next = clones[old.next]
		}
	}
	t.firstLeaf = clones[t.firstLeaf]
}

func cloneSubtree(n *bnode, clones map[*bnode]*bnode) *bnode {
	cl := &bnode{
		pageNo:   n.pageNo,
		leaf:     n.leaf,
		keys:     append([]int32(nil), n.keys...),
		rids:     append([]RID(nil), n.rids...),
		dataPage: append([]int32(nil), n.dataPage...),
	}
	clones[n] = cl
	if len(n.children) > 0 {
		cl.children = make([]*bnode, len(n.children))
		for i, c := range n.children {
			cl.children[i] = cloneSubtree(c, clones)
		}
	}
	return cl
}

func (t *BTree) insertLeafEntry(p *sim.Proc, key int32, place func(leaf *bnode, i int)) {
	t.ensureOwned()
	t.entries++
	if t.root == nil {
		t.root = &bnode{leaf: true, pageNo: t.allocPage()}
		t.firstLeaf = t.root
		t.height = 1
	}
	leaf, path := t.descend(p, key)
	i := sort.Search(len(leaf.keys), func(i int) bool { return leaf.keys[i] > key })
	leaf.keys = append(leaf.keys, 0)
	copy(leaf.keys[i+1:], leaf.keys[i:])
	leaf.keys[i] = key
	place(leaf, i)
	t.writeNode(p, leaf)
	if len(leaf.keys) > t.fanout {
		t.splitLeaf(p, leaf, path)
	}
}

func (t *BTree) allocPage() int {
	pg := t.nextPage
	t.nextPage++
	return pg
}

func (t *BTree) splitLeaf(p *sim.Proc, leaf *bnode, path []*bnode) {
	// Never divide a run of equal keys across two leaves: search descends
	// strictly right of a separator for equal keys, so a run spanning the
	// split point would become unreachable. Runs longer than a page stay
	// on one (oversize) leaf, standing in for WiSS overflow chains.
	mid := len(leaf.keys) / 2
	for mid < len(leaf.keys) && leaf.keys[mid] == leaf.keys[mid-1] {
		mid++
	}
	if mid == len(leaf.keys) {
		mid = len(leaf.keys) / 2
		for mid > 1 && leaf.keys[mid] == leaf.keys[mid-1] {
			mid--
		}
		if mid <= 1 && leaf.keys[0] == leaf.keys[len(leaf.keys)-1] {
			return // single run fills the leaf; keep it oversize
		}
	}
	right := &bnode{
		leaf:   true,
		pageNo: t.allocPage(),
		keys:   append([]int32(nil), leaf.keys[mid:]...),
		next:   leaf.next,
	}
	leaf.keys = leaf.keys[:mid]
	if leaf.rids != nil {
		right.rids = append([]RID(nil), leaf.rids[mid:]...)
		leaf.rids = leaf.rids[:mid]
	}
	if leaf.dataPage != nil {
		right.dataPage = append([]int32(nil), leaf.dataPage[mid:]...)
		leaf.dataPage = leaf.dataPage[:mid]
	}
	leaf.next = right
	t.writeNode(p, leaf)
	t.writeNode(p, right)
	t.insertIntoParent(p, leaf, right.keys[0], right, path)
}

func (t *BTree) insertIntoParent(p *sim.Proc, left *bnode, sep int32, right *bnode, path []*bnode) {
	if len(path) == 0 {
		newRoot := &bnode{pageNo: t.allocPage(), keys: []int32{sep}, children: []*bnode{left, right}}
		t.root = newRoot
		t.height++
		t.writeNode(p, newRoot)
		return
	}
	parent := path[len(path)-1]
	i := 0
	for ; i < len(parent.children); i++ {
		if parent.children[i] == left {
			break
		}
	}
	parent.keys = append(parent.keys, 0)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
	t.writeNode(p, parent)
	if len(parent.children) > t.fanout {
		t.splitInternal(p, parent, path[:len(path)-1])
	}
}

func (t *BTree) splitInternal(p *sim.Proc, n *bnode, path []*bnode) {
	mid := len(n.children) / 2
	sep := n.keys[mid-1]
	right := &bnode{
		pageNo:   t.allocPage(),
		keys:     append([]int32(nil), n.keys[mid:]...),
		children: append([]*bnode(nil), n.children[mid:]...),
	}
	n.keys = n.keys[:mid-1]
	n.children = n.children[:mid]
	t.writeNode(p, n)
	t.writeNode(p, right)
	t.insertIntoParent(p, n, sep, right, path)
}

// DeleteEntry removes one (key, rid) pair from a NonClustered index (lazy
// deletion: leaves are never merged, matching the single-tuple update
// workloads the paper measures).
func (t *BTree) DeleteEntry(p *sim.Proc, key int32, rid RID) bool {
	if t.Kind != NonClustered {
		panic("wiss: DeleteEntry on clustered index")
	}
	t.ensureOwned()
	leaf, _ := t.descend(p, key)
	for leaf != nil {
		i := sort.Search(len(leaf.keys), func(i int) bool { return leaf.keys[i] >= key })
		for ; i < len(leaf.keys) && leaf.keys[i] == key; i++ {
			if leaf.rids[i] == rid {
				leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
				leaf.rids = append(leaf.rids[:i], leaf.rids[i+1:]...)
				t.writeNode(p, leaf)
				t.entries--
				return true
			}
		}
		if i < len(leaf.keys) {
			return false
		}
		leaf = t.nextLeaf(p, leaf)
	}
	return false
}

// CheckInvariants verifies B+-tree structural invariants; tests use it.
func (t *BTree) CheckInvariants() error {
	if t.root == nil {
		return nil
	}
	return t.check(t.root, nil, nil, t.height)
}

func (t *BTree) check(n *bnode, lo, hi *int32, level int) error {
	for i, k := range n.keys {
		if lo != nil && k < *lo {
			return errOrder(n, i, "key below lower bound")
		}
		if hi != nil && k > *hi {
			return errOrder(n, i, "key above upper bound")
		}
		if i > 0 && n.keys[i-1] > k {
			return errOrder(n, i, "keys out of order")
		}
	}
	if n.leaf {
		if level != 1 {
			return errOrder(n, 0, "leaf at wrong depth")
		}
		return nil
	}
	if len(n.children) != len(n.keys)+1 {
		return errOrder(n, 0, "child/key count mismatch")
	}
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = &n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = &n.keys[i]
		}
		if err := t.check(c, clo, chi, level-1); err != nil {
			return err
		}
	}
	return nil
}

type btreeError struct{ msg string }

func (e btreeError) Error() string { return "btree: " + e.msg }

func errOrder(n *bnode, i int, msg string) error {
	return btreeError{msg: msg}
}
