package bench

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/wisconsin"
)

// The relation cache: the paper loaded its Wisconsin database once per
// machine and ran every query against it, and a suite run does the same. A
// loaded relation — partitioned, sorted, indexed — is a pure function of the
// storage geometry it is declustered over, the parameter set and its spec, so
// the suite builds each distinct one once on a throwaway machine, images it
// (core.RelationImage, teradata.RelationImage), and every machine that needs
// it — whatever else that machine holds, under whatever name — attaches the
// image to a fresh simulation in O(page directory). Copy-on-write pages keep
// the image immutable; Attach allocates file ids in Load's order, so the
// tables stay byte-identical to the uncached path's. The Wisconsin relations
// the images are loaded from are generated once per suite run as well, and
// each lives, with its images, until the last phase that declares it returns
// (see RunSuite): Tables 1-3 run a phase per size, so one size's relations
// are gone before the next size's are loaded.

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

// cmp orders relations by n, then seed.
func (k genKey) cmp(l genKey) int {
	return cmp.Or(cmp.Compare(k.n, l.n), cmp.Compare(k.seed, l.seed))
}

// relCache is a suite run's relations: the generated Wisconsin relations
// and the relation images (*core.RelationImage or *teradata.RelationImage)
// built from them. readers counts, per (n, seed), the phases of the run that
// declare it and have not returned; at zero the relation and every image
// built from it leave the cache. An entry still being built has a declarer
// that has not returned, so it is never freed.
type relCache struct {
	mu      sync.Mutex
	readers map[genKey]int
	tuples  *onceMap[genKey, []rel.Tuple]
	images  *onceMap[imageKey, any]
}

func newRelCache() *relCache {
	return &relCache{readers: map[genKey]int{},
		tuples: newOnceMap[genKey, []rel.Tuple](), images: newOnceMap[imageKey, any]()}
}

// declare counts one more reader of each of keys.
func (c *relCache) declare(keys []genKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		c.readers[k]++
	}
}

// release counts one reader of each of keys out, freeing the relations that
// have no reader left.
func (c *relCache) release(keys []genKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		if c.readers[k]--; c.readers[k] > 0 {
			continue
		}
		delete(c.readers, k)
		c.tuples.deleteFunc(func(g genKey) bool { return g == k })
		c.images.deleteFunc(func(ik imageKey) bool { return ik.rel.n == k.n && ik.rel.seed == k.seed })
	}
}

// image returns the relation image key names, built with build by the first
// machine of the suite run to ask; the caller is charged a miss if it built,
// a hit otherwise.
func image[T any](c *runCtx, key imageKey, build func() T) T {
	c.mustDeclare(genKey{key.rel.n, key.rel.seed})
	key.rel.name = ""
	v, hit := c.rels.images.get(key, func() any { return build() })
	if hit {
		c.imgHits.Add(1)
	} else {
		c.imgMisses.Add(1)
	}
	return v.(T)
}

// tuples returns the Wisconsin relation (n, seed), generated once per suite
// run and handed to every load of it: the machine loaders only read their
// input. Without a run context it generates afresh.
func (c *runCtx) tuples(n int, seed uint64) []rel.Tuple {
	if c == nil {
		return wisconsin.Generate(n, seed)
	}
	k := genKey{n, seed}
	c.mustDeclare(k)
	ts, _ := c.rels.tuples.get(k, func() []rel.Tuple { return wisconsin.Generate(n, seed) })
	return ts
}

// mustDeclare panics unless the phase declares k: the suite may already have
// freed an undeclared relation, or free it while the experiment reads.
func (c *runCtx) mustDeclare(k genKey) {
	if !slices.Contains(c.reads, k) {
		panic(fmt.Sprintf("bench: experiment %s reads relation (n=%d, seed=%d), which it does not declare", c.exp, k.n, k.seed))
	}
}
