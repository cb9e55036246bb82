package core

import (
	"maps"
	"slices"

	"gamma/internal/config"
	"gamma/internal/sim"
)

// Snapshot is an immutable image of a machine: its shape (parameters, node
// counts, mirroring), its result-name and query-id counters, and an image of
// every catalogued relation in load order. Like a RelationImage it references
// no simulator or node, so one Snapshot can be restored any number of times —
// concurrently — onto fresh simulations.
//
// Feature toggles (tracing, failover detection, recovery logging, shared
// scans, armed fault schedules) are deliberately NOT captured: they are
// cheap post-load switches, and callers re-apply them after RestoreMachine
// exactly as they would after Load.
type Snapshot struct {
	prm       config.Params
	nDisk     int
	nDiskless int
	mirrored  bool
	nextRes   int
	nextQID   int
	names     []string
	rels      []*RelationImage // rels[i] is catalogued as names[i]
}

// Snapshot images the machine. It must be taken while the machine is
// quiescent (no query in flight); the intended moment is immediately after
// the last Load. The source machine remains fully usable — its pages and
// index nodes become copy-on-write.
func (m *Machine) Snapshot() *Snapshot {
	snap := &Snapshot{
		prm:       *m.Prm,
		nDisk:     len(m.Disk),
		nDiskless: len(m.Diskless),
		mirrored:  m.mirrored,
		nextRes:   m.nextRes,
		nextQID:   m.nextQID,
	}
	byLoad := func(a, b *Relation) int { return a.seq - b.seq }
	for _, r := range slices.SortedFunc(maps.Values(m.catalog), byLoad) {
		snap.names = append(snap.names, r.Name)
		snap.rels = append(snap.rels, r.Image())
	}
	return snap
}

// RestoreMachine builds a working machine from a snapshot on the given
// simulator — normally a fresh sim.New(), so the restored machine starts at
// t=0 — by attaching every relation image in load order. File ids are
// therefore allocated as Load would allocate them, not copied, and results
// and traces are byte-identical to a from-scratch load-then-query run.
func RestoreMachine(s *sim.Sim, snap *Snapshot) *Machine {
	prm := snap.prm // private copy; the machine may mutate Params via options
	m := NewMachine(s, &prm, snap.nDisk, snap.nDiskless)
	if snap.mirrored {
		m.EnableMirroring()
	}
	m.nextRes, m.nextQID = snap.nextRes, snap.nextQID
	for i, img := range snap.rels {
		if _, err := m.Attach(snap.names[i], img); err != nil {
			panic(err) // the images were taken on a machine of this very shape
		}
	}
	return m
}
