package core

import (
	"fmt"
	"slices"
	"sort"

	"gamma/internal/rel"
	"gamma/internal/wiss"
)

// RelationImage is an immutable image of one catalogued relation: its
// catalog entry minus the name, the geometry of the machine it was imaged on,
// and per fragment the disk site it lives on with its frozen heap file and
// B+-tree node graphs — the primaries and, on a mirrored machine, the
// chained-declustered backups. It references no machine, simulator or node,
// so one image can be attached to any number of machines — concurrently —
// which then share its pages and index nodes copy-on-write. It carries no
// file ids: Attach allocates them afresh in Load's order, so relations imaged
// on different throwaway machines can be grafted side by side.
type RelationImage struct {
	sites    int  // disk sites of the imaged machine
	mirrored bool // whether the imaged machine was mirrored
	n        int
	strategy PartStrategy
	partAttr rel.Attr
	bounds   []int32
	width    int
	frags    []fragmentImage
	backups  []fragmentImage // nil for a relation without backups
}

// fragmentImage is one fragment: its disk site (an index into Machine.Disk:
// Load puts fragment i's primary on site i and its backup on site i+1), the
// file, and its indexes in the order their index files were allocated
// (clustered first, then the dense indexes in LoadSpec order).
type fragmentImage struct {
	site    int
	file    *wiss.FileImage
	indexes []*wiss.BTreeImage
}

// Image captures the relation as an immutable image. It must be taken while
// the machine is quiescent; the relation stays usable, its pages and index
// nodes now copy-on-write.
func (r *Relation) Image() *RelationImage {
	m := r.m
	img := &RelationImage{
		sites:    len(m.Disk),
		mirrored: m.mirrored,
		n:        r.N,
		strategy: r.Strategy,
		partAttr: r.PartAttr,
		bounds:   append([]int32(nil), r.Bounds...),
		width:    r.Width,
	}
	for _, fr := range r.Frags {
		img.frags = append(img.frags, m.imageFragment(fr))
	}
	for _, fr := range r.Backups {
		img.backups = append(img.backups, m.imageFragment(fr))
	}
	return img
}

func (m *Machine) imageFragment(fr *Fragment) fragmentImage {
	fi := fragmentImage{site: slices.Index(m.Disk, fr.Node), file: fr.File.Snapshot()}
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
// just built it here: each fragment goes to the disk site it was imaged on,
// and the stores allocate file ids in Load's order — every primary's file and
// then its index files, fragment by fragment, then the backups likewise — so
// file ids, hence buffer-pool keys and drive extents, and everything
// simulated downstream match a from-scratch Load of the same relations in the
// same order. It costs O(page directory): pages and index nodes stay shared
// with the image until first written.
//
// The machine must have the geometry the image was built for (which also
// bounds every recorded site); a mismatch in site count or mirroring, or a
// name already catalogued, is an error and leaves the machine untouched.
func (m *Machine) Attach(name string, img *RelationImage) (*Relation, error) {
	if img.sites != len(m.Disk) || img.mirrored != m.mirrored {
		return nil, fmt.Errorf("core: attach %q: image built for %s, machine has %s",
			name, geometry(img.sites, img.mirrored), geometry(len(m.Disk), m.mirrored))
	}
	if _, dup := m.catalog[name]; dup {
		return nil, fmt.Errorf("core: attach %q: machine with %s already catalogues a relation of that name",
			name, geometry(len(m.Disk), m.mirrored))
	}
	r := &Relation{
		Name:     name,
		N:        img.n,
		Strategy: img.strategy,
		PartAttr: img.partAttr,
		Bounds:   append([]int32(nil), img.bounds...),
		Width:    img.width,
		m:        m,
	}
	for _, fi := range img.frags {
		r.Frags = append(r.Frags, m.attachFragment(name, fi))
	}
	for _, fi := range img.backups {
		r.Backups = append(r.Backups, m.attachFragment(name+".bak", fi))
	}
	m.catalogue(r)
	return r, nil
}

func geometry(sites int, mirrored bool) string {
	if mirrored {
		return fmt.Sprintf("%d mirrored disk sites", sites)
	}
	return fmt.Sprintf("%d unmirrored disk sites", sites)
}

// attachFragment is buildFragment for an imaged fragment: the file, then its
// indexes, their ids allocated in the image's order.
func (m *Machine) attachFragment(fileName string, fi fragmentImage) *Fragment {
	nd := m.Disk[fi.site]
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
