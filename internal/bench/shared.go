package bench

import (
	"fmt"
	"maps"
	"sync"

	"gamma/internal/config"
)

// onceMap is a singleflight cache: get builds the value of a key on first
// use and hands every later (or concurrent) caller the same value. It backs
// everything a suite run shares — generated relations, relation images and
// data points.
type onceMap[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*onceEntry[V]
}

// onceEntry is one slot; its sync.Once is the singleflight guard, so
// concurrent -parallel workers asking for the same key build it exactly once
// and the rest block until it is ready.
type onceEntry[V any] struct {
	once sync.Once
	val  V
}

func newOnceMap[K comparable, V any]() *onceMap[K, V] {
	return &onceMap[K, V]{entries: map[K]*onceEntry[V]{}}
}

// get returns the value for key, building it via build on first use. hit
// reports whether the caller was spared the build (false for the builder;
// workers that blocked on the builder's singleflight count as hits).
func (c *onceMap[K, V]) get(key K, build func() V) (val V, hit bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &onceEntry[V]{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	hit = true
	e.once.Do(func() {
		hit = false
		e.val = build()
	})
	return e.val, hit
}

// deleteFunc drops every entry whose key matches. No caller may be asking for
// those keys, or building them, when they go.
func (c *onceMap[K, V]) deleteFunc(match func(K) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	maps.DeleteFunc(c.entries, func(k K, _ *onceEntry[V]) bool { return match(k) })
}

// len reports the number of keys held.
func (c *onceMap[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// The point cache: the paper plots every sweep but Figure 13's twice — Figure
// 2 is Figure 1's sweep as speedups, Figure 11 is Figure 9's — and the hybrid
// ablation's Simple column is Figure 13's Remote column, but measured each
// once. A data point — of a sweep, the m-th machine at an x running its share
// of the curves — is one fresh machine and a fixed query sequence, a pure
// function of its key, so a suite simulates it for the first experiment that
// asks and hands the same value to every later one.

// pointKey identifies one data point: which sweep (or other measurement) with
// which arguments, plus everything of Options that shapes a simulated result
// (maxProcs shapes a sweep, not a point; it is here so that a point which
// ever reads it cannot alias).
type pointKey struct {
	point        string // measurement name and arguments, canonically rendered
	prm          config.Params
	figureTuples int
	maxProcs     int
}

// point builds the key of the named sweep's or measurement's point at args
// under these options.
func (o Options) point(name string, args ...any) pointKey {
	return pointKey{
		point:        fmt.Sprintf("%s%v", name, args),
		prm:          o.params(),
		figureTuples: o.FigureTuples,
		maxProcs:     o.MaxProcs,
	}
}

// shared returns the data point key names, simulating it with fn unless this
// suite run already has. The experiment that simulates is charged the point's
// events and wall time; one that is handed the value counts
// a shared point instead. Without a point cache (any computation outside
// RunSuite) fn always runs: that is the reference path the shared one must
// match byte-for-byte. Values are handed out by reference — callers must not
// modify what they get.
func shared[T any](o Options, key pointKey, fn func() T) T {
	c := o.run
	if c == nil || c.points == nil {
		return fn()
	}
	v, hit := c.points.get(key, func() any { return fn() })
	if hit {
		c.sharedPts.Add(1)
	}
	return v.(T)
}
