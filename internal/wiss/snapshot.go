package wiss

import (
	"sort"

	"gamma/internal/config"
	"gamma/internal/nose"
	"gamma/internal/rel"
)

// Machine images. A Store can freeze itself into a StoreImage — an immutable
// record of its file directory and page arrays — and any number of Stores can
// later be restored from that image onto fresh simulated nodes. Restored
// stores share the frozen pages (and B-tree node graphs) with the image and
// with each other; the copy-on-write paths in wiss.go (File.mutPage) and
// btree.go (BTree.ensureOwned) clone on first write, so a restore is
// O(file count + page directory), not O(data), and the image stays pristine.
// One file's or index's image can also be adopted into a store that already
// holds others, under a fresh id (AdoptFile, AdoptBTree): core's relation
// images and the healer's re-replication are built on that.
//
// Taking a snapshot freezes the source store's pages too: the source keeps
// working, but its next in-place write also goes through copy-on-write.

// FileImage is the frozen state of one heap file.
type FileImage struct {
	id        int
	name      string
	pages     []*Page // every page frozen
	nTuples   int
	sorted    bool
	sortKey   rel.Attr
	unordered bool
	slotBytes int
}

// StoreImage is the frozen state of one node's Store: the file-id space and
// every file's image, ordered by file id.
type StoreImage struct {
	nextID int
	files  []*FileImage
}

// Snapshot freezes every page of the file and returns its image.
func (f *File) Snapshot() *FileImage {
	for _, pg := range f.pages {
		pg.frozen = true
	}
	return &FileImage{
		id:        f.ID,
		name:      f.Name,
		pages:     append([]*Page(nil), f.pages...),
		nTuples:   f.nTuples,
		sorted:    f.Sorted,
		sortKey:   f.SortKey,
		unordered: f.Unordered,
		slotBytes: f.SlotBytes,
	}
}

// Snapshot freezes the store into an immutable image. The store remains
// usable; its pages are now copy-on-write.
func (st *Store) Snapshot() *StoreImage {
	img := &StoreImage{nextID: st.nextID}
	ids := make([]int, 0, len(st.files))
	for id := range st.files {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		img.files = append(img.files, st.files[id].Snapshot())
	}
	return img
}

// RestoreStore materializes a working Store from an image onto a node. File
// ids (and the id allocator) are preserved exactly — buffer-pool keys and
// drive-extent modeling depend on them — and the buffer pool starts empty
// with zeroed hit/miss counters, exactly like a store whose relations were
// just loaded. Pages are shared with the image until first write.
func RestoreStore(node *nose.Node, prm *config.Params, img *StoreImage) *Store {
	st := NewStore(node, prm)
	st.nextID = img.nextID
	for _, fi := range img.files {
		f := &File{
			st:        st,
			ID:        fi.id,
			Name:      fi.name,
			nTuples:   fi.nTuples,
			Sorted:    fi.sorted,
			SortKey:   fi.sortKey,
			Unordered: fi.unordered,
			SlotBytes: fi.slotBytes,
		}
		// Exact-capacity copy: an append to the restored file reallocates
		// its page directory instead of scribbling past the image's slice.
		f.pages = make([]*Page, len(fi.pages))
		copy(f.pages, fi.pages)
		st.files[f.ID] = f
	}
	return st
}

// FileByID returns the store's file with the given id (restore-time lookup:
// core's fragment directory records files by id).
func (st *Store) FileByID(id int) (*File, bool) {
	f, ok := st.files[id]
	return f, ok
}

// AdoptFile materializes a working copy of a file image on st under a FRESH
// file id, sharing the image's pages copy-on-write. Unlike RestoreStore —
// which rebuilds a whole store and must preserve ids — adoption grafts one
// file into a store that has its own id space (core's Attach puts an imaged
// relation on a machine as Load would; re-replication streams a surviving
// fragment's image to a live node), so reusing the source id could collide
// with an unrelated file there.
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

// Pages returns the number of pages in the imaged file (rebuild pacing needs
// the copy length without materializing the file).
func (img *FileImage) Pages() int { return len(img.pages) }

// BTreeImage is the frozen state of one B+-tree index: the node graph is
// shared, not copied, and every tree holding it (source or restored) clones
// it on first mutation.
type BTreeImage struct {
	attr      rel.Attr
	kind      IndexKind
	idxFileID int
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
		idxFileID: t.idxFileID,
		fanout:    t.fanout,
		root:      t.root,
		firstLeaf: t.firstLeaf,
		nextPage:  t.nextPage,
		height:    t.height,
		entries:   t.entries,
	}
}

// RestoreBTree materializes a working index over the restored file f on store
// st, sharing the image's node graph copy-on-write. The index file id is
// preserved so pool keys and drive extents match the original exactly.
func RestoreBTree(st *Store, f *File, img *BTreeImage) *BTree {
	return &BTree{
		st:        st,
		file:      f,
		Attr:      img.attr,
		Kind:      img.kind,
		idxFileID: img.idxFileID,
		fanout:    img.fanout,
		root:      img.root,
		firstLeaf: img.firstLeaf,
		nextPage:  img.nextPage,
		height:    img.height,
		entries:   img.entries,
		shared:    true,
	}
}
