package bench

import (
	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/wisconsin"
)

// The relation caches: the paper loaded its Wisconsin database once per
// machine and ran every query against it, and a suite run does the same. A
// loaded relation — partitioned, sorted, indexed — is a pure function of the
// storage geometry it is declustered over, the parameter set and its spec, so
// the suite builds each distinct one once on a throwaway machine, images it
// (core.RelationImage, teradata.RelationImage), and every machine that needs
// it — whatever else that machine holds, under whatever name — attaches the
// image to a fresh simulation in O(page directory). Copy-on-write pages keep
// the image immutable; Attach allocates file ids in Load's order, so the
// tables stay byte-identical to the uncached path's. The Wisconsin relations
// the images are loaded from are generated once per cache as well.

// imageKey identifies one distinct loaded relation on either machine.
type imageKey struct {
	// tera marks a Teradata hash file. Its AMP count is in prm, nDisk and
	// mirrored stay zero, and rel holds n and seed only: every relation
	// there is hashed on unique1, and secondary indices are catalog
	// metadata, not storage.
	tera     bool
	nDisk    int // Gamma disk sites the relation is declustered over
	mirrored bool
	prm      config.Params
	rel      relSpec // name blanked: the image is attached under any name
}

// genKey identifies one generated Wisconsin relation.
type genKey struct {
	n    int
	seed uint64
}

// relCache is one scope's relations: the generated Wisconsin relations and
// the relation images (*core.RelationImage or *teradata.RelationImage) built
// from them. A suite run has one suite-wide relCache, whose entries live until
// the run ends, and one of its own for each experiment whose relations no
// other experiment reads (the registry's own column), which becomes garbage
// when that experiment returns.
type relCache struct {
	tuples *onceMap[genKey, []rel.Tuple]
	images *onceMap[imageKey, any]
}

func newRelCache() *relCache {
	return &relCache{tuples: newOnceMap[genKey, []rel.Tuple](), images: newOnceMap[imageKey, any]()}
}

// image returns the relation image key names, built with build by the first
// machine of the experiment's cache scope to ask; the caller is charged a
// miss if it built, a hit otherwise.
func image[T any](c *runCtx, key imageKey, build func() T) T {
	key.rel.name = ""
	v, hit := c.rels.images.get(key, func() any { return build() })
	if hit {
		c.imgHits.Add(1)
	} else {
		c.imgMisses.Add(1)
	}
	return v.(T)
}

// tuples returns the Wisconsin relation (n, seed), generated once per cache
// scope and handed to every load of it: the machine loaders only read their
// input. Without a run context it generates afresh.
func (c *runCtx) tuples(n int, seed uint64) []rel.Tuple {
	if c == nil {
		return wisconsin.Generate(n, seed)
	}
	ts, _ := c.rels.tuples.get(genKey{n, seed}, func() []rel.Tuple { return wisconsin.Generate(n, seed) })
	return ts
}
