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
// a relation that lands on one machine only (scale100's) is loaded straight
// onto it from them: its image would outlive its one reader. Rows leave the
// cache once no phase (see RunSuite) that loads the relation has still to
// build its machines, and a version's images once the last phase that
// declares it returns. So at a table size, where table1 builds every image
// of A, A's rows go before table1's queries, Gamma's indexed A when table3
// returns, and Table 2's own rows before its first join.

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

// version is one physical version of a generated relation: Gamma's indexed
// one (relSpec.indexed), or the heap that every other image of it is.
type version struct {
	genKey
	indexed bool
}

func (k imageKey) version() version { return version{genKey{k.rel.n, k.rel.seed}, k.rel.indexed} }

// read is one version a phase declares. A load may build its images from the
// generated rows; an attach only uses images an earlier phase built, and on a
// miss generates rows the cache does not keep.
type read struct {
	version
	attach bool
}

// relCache is a suite run's relations: the generated Wisconsin relations
// and the relation images (*core.RelationImage or *teradata.RelationImage)
// built from them. loads counts, per relation, the loads of phases that have
// not built their machines, and claims, per version, the phases that declare
// it and have not returned; at zero the rows, or the version's images, leave
// the cache. An image being built has a claim, so it is never freed.
type relCache struct {
	mu     sync.Mutex
	loads  map[genKey]int
	claims map[version]int
	tuples *onceMap[genKey, []rel.Tuple]
	images *onceMap[imageKey, any]
}

func newRelCache() *relCache {
	return &relCache{loads: map[genKey]int{}, claims: map[version]int{},
		tuples: newOnceMap[genKey, []rel.Tuple](), images: newOnceMap[imageKey, any]()}
}

// declare counts one phase's loads and claims in.
func (c *relCache) declare(reads []read) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range reads {
		c.claims[r.version]++
		if !r.attach {
			c.loads[r.genKey]++
		}
	}
}

// release counts one phase's loads out when it has built its machines, or
// else its claims, freeing what has none left.
func (c *relCache) release(reads []read, built bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range reads {
		if built && !r.attach {
			if c.loads[r.genKey]--; c.loads[r.genKey] == 0 {
				delete(c.loads, r.genKey)
				c.tuples.deleteFunc(func(k genKey) bool { return k == r.genKey })
			}
		} else if !built {
			if c.claims[r.version]--; c.claims[r.version] == 0 {
				delete(c.claims, r.version)
				c.images.deleteFunc(func(k imageKey) bool { return k.version() == r.version })
			}
		}
	}
}

// image returns the relation image key names, built with build by the first
// machine of the suite run to ask; the caller is charged a miss if it built,
// a hit otherwise.
func image[T any](c *runCtx, key imageKey, build func() T) T {
	c.mustDeclare(key.version(), false)
	key.rel.name = ""
	v, hit := c.rels.images.entry(key).get(func() any { return build() })
	if hit {
		c.imgHits.Add(1)
	} else {
		c.imgMisses.Add(1)
	}
	return v.(T)
}

// tuples returns the Wisconsin relation (n, seed), generated once per suite
// run and handed to every load while one is pending (the machine loaders only
// read their input); otherwise generated afresh, as without a run context.
func (c *runCtx) tuples(n int, seed uint64) []rel.Tuple {
	generate := func() []rel.Tuple { return wisconsin.Generate(n, seed) }
	if c == nil {
		return generate()
	}
	k := genKey{n, seed}
	c.mustDeclare(version{genKey: k}, true)
	e := &onceEntry[[]rel.Tuple]{}
	c.rels.mu.Lock()
	if c.rels.loads[k] > 0 {
		e = c.rels.tuples.entry(k)
	}
	c.rels.mu.Unlock()
	ts, hit := e.get(generate)
	if !hit {
		c.generated.Add(1)
	}
	return ts
}

// mustDeclare panics unless the phase declares v, or with anyVersion any
// version of v's relation: the suite may already have freed an undeclared
// relation, or free it while the experiment reads.
func (c *runCtx) mustDeclare(v version, anyVersion bool) {
	if !slices.ContainsFunc(c.reads, func(r read) bool { return r.version == v || anyVersion && r.genKey == v.genKey }) {
		panic(fmt.Sprintf("bench: experiment %s reads relation (n=%d, seed=%d, indexed=%t), which it does not declare", c.exp, v.n, v.seed, v.indexed))
	}
}
