package bench

import (
	"fmt"

	"gamma/internal/config"
	"gamma/internal/core"
)

// The image cache: most of the suite's ~200 data points query an identical
// post-load database and differ only in the query, so the suite builds each
// distinct machine image once (hash declustering, heap fills, B+-tree
// builds), snapshots it, and every later data point restores the snapshot
// onto a fresh simulation in O(metadata) — copy-on-write pages keep the
// cached image immutable and the restored tables byte-identical to an
// uncached build. Images are keyed by everything that shapes the post-load
// state: machine geometry, mirroring, the full parameter set, and the exact
// relation specs (name, cardinality, seed, declustering, indexes).

// imageKey identifies one distinct machine image.
type imageKey struct {
	nDisk     int
	nDiskless int
	mirrored  bool
	prm       config.Params
	rels      string // canonical rendering of the relSpec list
}

func relsKey(specs []relSpec) string { return fmt.Sprintf("%+v", specs) }

// imageCache maps image keys to snapshots. One cache serves a whole suite
// run: entries live until the run ends (the trade is memory for wall clock —
// a paper-scale suite retains a few hundred MB of frozen pages).
type imageCache = onceMap[imageKey, *core.Snapshot]

func newImageCache() *imageCache { return newOnceMap[imageKey, *core.Snapshot]() }
