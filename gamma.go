// Package gamma is a from-scratch reproduction of the Gamma database machine
// (DeWitt, Ghandeharizadeh, Schneider: "A Performance Analysis of the Gamma
// Database Machine", SIGMOD 1988): a shared-nothing parallel relational
// engine — hash-declustered relations, dataflow operators connected by split
// tables, distributed hash joins with overflow resolution — executing on a
// calibrated discrete-event simulation of the 1988 hardware, plus a
// simulator of the Teradata DBC/1012 baseline.
//
// Queries run for real (real tuples, real B+-trees, real hash tables); the
// clock is simulated, so a Result's Elapsed field is directly comparable to
// the paper's response times. Example_quickstart is the quick start: the
// standard configuration, the benchmark relation and one query per class.
package gamma

import (
	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/teradata"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// Core engine types.
type (
	// Machine is a simulated Gamma configuration.
	Machine = core.Machine
	// Relation is a horizontally declustered relation.
	Relation = core.Relation
	// LoadSpec describes how to create and index a relation.
	LoadSpec = core.LoadSpec
	// ScanSpec is one access-path-resolved relation scan.
	ScanSpec = core.ScanSpec
	// AccessPath is how a scan reads its relation (the Path* constants).
	AccessPath = core.AccessPath
	// SelectQuery, JoinQuery, AggQuery, and UpdateQuery are the four
	// query classes of the paper's evaluation.
	SelectQuery = core.SelectQuery
	JoinQuery   = core.JoinQuery
	AggQuery    = core.AggQuery
	UpdateQuery = core.UpdateQuery
	// ConcurrentQuery is one of the queries Machine.RunConcurrent starts
	// together.
	ConcurrentQuery = core.ConcurrentQuery
	// Result reports a query's outcome and simulated response time.
	Result = core.Result
	// AggResult reports an aggregate query's groups.
	AggResult = core.AggResult
	// Config is the calibrated machine cost model.
	Config = config.Params
	// Tuple is one Wisconsin-benchmark record.
	Tuple = rel.Tuple
	// Pred is a compiled range predicate.
	Pred = rel.Pred
	// Attr names one of the thirteen integer attributes.
	Attr = rel.Attr
	// Teradata is the DBC/1012 baseline machine.
	Teradata = teradata.Machine
	// TraceCollector logs the structured event stream of a traced machine
	// (Machine.EnableTrace) in emission order, for filtering and JSONL export.
	TraceCollector = trace.Collector
	// TraceEvent is one typed record of the stream.
	TraceEvent = trace.Event
	// Verdict is the bottleneck classifier's output: which resource class
	// (disk, CPU, NIC, ring, control messages) bound a window of either
	// machine's simulation, from Result.Counters.Verdict(), traced or not.
	Verdict = nose.Verdict
)

// Declustering strategies (§2).
const (
	RoundRobin   = core.RoundRobin
	Hashed       = core.Hashed
	RangeUser    = core.RangeUser
	RangeUniform = core.RangeUniform
)

// Join operator placement (§6).
const (
	Local    = core.Local
	Remote   = core.Remote
	AllNodes = core.AllNodes
)

// Join overflow algorithms.
const (
	SimpleHash = core.SimpleHash
	HybridHash = core.HybridHash
)

// Access paths.
const (
	PathAuto         = core.PathAuto
	PathHeap         = core.PathHeap
	PathClustered    = core.PathClustered
	PathNonClustered = core.PathNonClustered
)

// Update kinds (§7).
const (
	AppendTuple      = core.AppendTuple
	DeleteByKey      = core.DeleteByKey
	ModifyKeyAttr    = core.ModifyKeyAttr
	ModifyNonIndexed = core.ModifyNonIndexed
	ModifyIndexed    = core.ModifyIndexed
)

// Aggregate functions.
const (
	Count = core.Count
	Sum   = core.Sum
	Min   = core.Min
	Max   = core.Max
	Avg   = core.Avg
)

// Wisconsin benchmark attributes (§4).
const (
	Unique1        = rel.Unique1
	Unique2        = rel.Unique2
	Two            = rel.Two
	Four           = rel.Four
	Ten            = rel.Ten
	Twenty         = rel.Twenty
	OnePercent     = rel.OnePercent
	TenPercent     = rel.TenPercent
	TwentyPercent  = rel.TwentyPercent
	FiftyPercent   = rel.FiftyPercent
	Unique3        = rel.Unique3
	EvenOnePercent = rel.EvenOnePercent
	OddOnePercent  = rel.OddOnePercent
)

// DefaultConfig returns the calibrated standard configuration: VAX 11/750
// processors, Fujitsu drives, the Proteon ring behind a 4 Mbit/s Unibus, and
// the 4x20x40 Teradata baseline.
func DefaultConfig() Config { return config.Default() }

// New builds a Gamma machine with nDisk disk processors and nDiskless
// diskless processors on a fresh simulation. cfg nil means DefaultConfig.
// The paper's standard configuration is New(8, 8, nil).
func New(nDisk, nDiskless int, cfg *Config) *Machine {
	c := config.Default()
	if cfg != nil {
		c = *cfg
	}
	return core.NewMachine(sim.New(), &c, nDisk, nDiskless)
}

// NewTeradata builds the paper's Teradata DBC/1012 baseline configuration
// (4 IFPs, 20 AMPs, 40 disk storage units).
func NewTeradata(cfg *Config) *Teradata {
	c := config.Default()
	if cfg != nil {
		c = *cfg
	}
	return teradata.NewMachine(sim.New(), &c)
}

// Wisconsin generates the n-tuple Wisconsin benchmark relation selected by
// seed (§4): unique1/unique2 are independent permutations of [0, n).
func Wisconsin(n int, seed uint64) []Tuple { return wisconsin.Generate(n, seed) }

// Eq matches tuples whose attribute equals v.
func Eq(a Attr, v int32) Pred { return rel.Eq(a, v) }

// Between matches lo <= attr <= hi.
func Between(a Attr, lo, hi int32) Pred { return rel.Between(a, lo, hi) }

// All matches every tuple.
func All() Pred { return rel.True() }

// Seconds converts a simulated duration to float seconds.
func Seconds(d sim.Dur) float64 { return d.Seconds() }
