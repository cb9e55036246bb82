package wiss

import "gamma/internal/rel"

// File and index images. A heap file freezes into a FileImage and a B+-tree
// into a BTreeImage: immutable records of the page array and of the node
// graph, holding no store, node or id. Any number of stores can later adopt
// an image under a fresh id of their own (AdoptFile, AdoptBTree) and share
// its pages and nodes with the image and with each other; the copy-on-write
// paths in wiss.go (File.mutPage) and btree.go (BTree.ensureOwned) clone on
// first write, so an adoption is O(page directory), not O(data), and the
// image stays pristine. core's and teradata's relation images are built on
// these two.
//
// Taking an image freezes the source's pages and nodes too: the source keeps
// working, but its next in-place write also goes through copy-on-write.

// FileImage is the frozen state of one heap file.
type FileImage struct {
	name      string
	pages     []*Page // every page frozen
	nTuples   int
	sorted    bool
	sortKey   rel.Attr
	unordered bool
	slotBytes int
}

// Snapshot freezes every page of the file and returns its image.
func (f *File) Snapshot() *FileImage {
	for _, pg := range f.pages {
		pg.frozen = true
	}
	return &FileImage{
		name:      f.Name,
		pages:     append([]*Page(nil), f.pages...),
		nTuples:   f.nTuples,
		sorted:    f.Sorted,
		sortKey:   f.SortKey,
		unordered: f.Unordered,
		slotBytes: f.SlotBytes,
	}
}

// AdoptFile materializes a working copy of a file image on st under a fresh
// file id, sharing the image's pages copy-on-write. The id is st's own: core's
// Attach puts an imaged relation on a machine as Load would, allocating ids
// in Load's order, so the source's id could collide with an unrelated file
// there.
func (st *Store) AdoptFile(img *FileImage) *File {
	st.nextID++
	f := &File{
		st:        st,
		ID:        st.nextID,
		Name:      img.name,
		nTuples:   img.nTuples,
		Sorted:    img.sorted,
		SortKey:   img.sortKey,
		Unordered: img.unordered,
		SlotBytes: img.slotBytes,
	}
	// Exact-capacity copy: an append to the adopted file reallocates its page
	// directory instead of scribbling past the image's slice.
	f.pages = make([]*Page, len(img.pages))
	copy(f.pages, img.pages)
	st.files[f.ID] = f
	return f
}

// AdoptBTree materializes a working copy of an index image over the adopted
// file f on st, under a fresh index file id (same collision argument as
// AdoptFile), sharing the node graph copy-on-write.
func (st *Store) AdoptBTree(f *File, img *BTreeImage) *BTree {
	st.nextID++
	return &BTree{
		st:        st,
		file:      f,
		Attr:      img.attr,
		Kind:      img.kind,
		idxFileID: st.nextID,
		fanout:    img.fanout,
		root:      img.root,
		firstLeaf: img.firstLeaf,
		nextPage:  img.nextPage,
		height:    img.height,
		entries:   img.entries,
		shared:    true,
	}
}

// BTreeImage is the frozen state of one B+-tree index: the node graph is
// shared, not copied, and every tree holding it (source or adopted) clones
// it on first mutation.
type BTreeImage struct {
	attr      rel.Attr
	kind      IndexKind
	fanout    int
	root      *bnode
	firstLeaf *bnode
	nextPage  int
	height    int
	entries   int
}

// Snapshot freezes the tree into an image. The source tree keeps working but
// becomes copy-on-write: its next structural mutation deep-clones the graph.
func (t *BTree) Snapshot() *BTreeImage {
	t.shared = true
	return &BTreeImage{
		attr:      t.Attr,
		kind:      t.Kind,
		fanout:    t.fanout,
		root:      t.root,
		firstLeaf: t.firstLeaf,
		nextPage:  t.nextPage,
		height:    t.height,
		entries:   t.entries,
	}
}
