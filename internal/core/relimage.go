package core

import (
	"fmt"
	"sort"

	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/wiss"
)

// RelationImage is an immutable image of one loaded relation: its catalog
// entry minus the name, and per disk site the frozen heap file and B+-tree
// node graphs of the primary fragment and, on a mirrored machine, of the
// chained-declustered backup. It references no machine, simulator or node,
// so one image can be attached to any number of machines — concurrently —
// which then share its pages and index nodes copy-on-write.
//
// Where Snapshot images a whole machine, file ids included, a RelationImage
// carries none: Attach allocates them afresh in Load's order, so relations
// imaged on different throwaway machines can be grafted side by side.
type RelationImage struct {
	n        int
	strategy PartStrategy
	partAttr rel.Attr
	bounds   []int32
	width    int
	frags    []fragmentImage
	backups  []fragmentImage // nil for an unmirrored relation
}

// fragmentImage is one fragment: the file, and its indexes in the order
// their index files were allocated (clustered first, then the dense indexes
// in LoadSpec order). A nil file is a backup slot the healer has condemned
// and not yet rebuilt.
type fragmentImage struct {
	file    *wiss.FileImage
	indexes []*wiss.BTreeImage
}

// Image captures the relation as an immutable image. Like Snapshot it must
// be taken while the machine is quiescent; the relation stays usable, its
// pages and index nodes now copy-on-write.
func (r *Relation) Image() *RelationImage {
	img := &RelationImage{
		n:        r.N,
		strategy: r.Strategy,
		partAttr: r.PartAttr,
		bounds:   append([]int32(nil), r.Bounds...),
		width:    r.Width,
	}
	for _, fr := range r.Frags {
		img.frags = append(img.frags, imageFragment(fr))
	}
	for _, fr := range r.Backups {
		img.backups = append(img.backups, imageFragment(fr))
	}
	return img
}

func imageFragment(fr *Fragment) fragmentImage {
	if fr == nil {
		return fragmentImage{}
	}
	fi := fragmentImage{file: fr.File.Snapshot()}
	trees := make([]*wiss.BTree, 0, len(fr.Indexes))
	for _, bt := range fr.Indexes {
		trees = append(trees, bt)
	}
	sort.Slice(trees, func(i, j int) bool { return trees[i].FileID() < trees[j].FileID() })
	for _, bt := range trees {
		fi.indexes = append(fi.indexes, bt.Snapshot())
	}
	return fi
}

// Attach catalogues the imaged relation under name, exactly as if Load had
// just built it here: every store allocates the fragment's file id and then
// its index file ids in Load's order (primaries site by site, then each
// backup on the next site), so file ids — hence buffer-pool keys and drive
// extents — and everything simulated downstream match a from-scratch Load
// of the same relations in the same order. It costs O(page directory):
// pages and index nodes stay shared with the image until first written.
//
// The machine must have the geometry the image was built for; a mismatch in
// site count or mirroring, or a name already catalogued, is an error and
// leaves the machine untouched.
func (m *Machine) Attach(name string, img *RelationImage) (*Relation, error) {
	if sites, mirrored := len(img.frags), img.backups != nil; sites != len(m.Disk) || mirrored != m.mirrored {
		return nil, fmt.Errorf("core: attach %q: image built for %s, machine has %s",
			name, geometry(sites, mirrored), geometry(len(m.Disk), m.mirrored))
	}
	if _, dup := m.catalog[name]; dup {
		return nil, fmt.Errorf("core: attach %q: machine with %s already catalogues a relation of that name",
			name, geometry(len(m.Disk), m.mirrored))
	}
	k := len(m.Disk)
	r := &Relation{
		Name:     name,
		N:        img.n,
		Strategy: img.strategy,
		PartAttr: img.partAttr,
		Bounds:   append([]int32(nil), img.bounds...),
		Width:    img.width,
		m:        m,
	}
	for i, fi := range img.frags {
		r.Frags = append(r.Frags, m.attachFragment(m.Disk[i], name, fi))
	}
	for i, fi := range img.backups {
		r.Backups = append(r.Backups, m.attachFragment(m.Disk[(i+1)%k], name+".bak", fi))
	}
	m.catalog[name] = r
	return r, nil
}

func geometry(sites int, mirrored bool) string {
	if mirrored {
		return fmt.Sprintf("%d mirrored disk sites", sites)
	}
	return fmt.Sprintf("%d unmirrored disk sites", sites)
}

// attachFragment is buildFragment for an imaged fragment.
func (m *Machine) attachFragment(nd *nose.Node, fileName string, fi fragmentImage) *Fragment {
	if fi.file == nil {
		return nil
	}
	st := m.stores[nd.ID]
	f := st.AdoptFile(fi.file)
	f.Name = fileName
	frag := &Fragment{Node: nd, File: f, Indexes: map[rel.Attr]*wiss.BTree{}}
	for _, ix := range fi.indexes {
		bt := st.AdoptBTree(f, ix)
		frag.Indexes[bt.Attr] = bt
	}
	return frag
}
