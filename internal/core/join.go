package core

import (
	"fmt"
	"slices"
	"sort"

	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wiss"
)

// JoinMode is where join operators run (§6): on the processors with disks
// (Local), on the diskless processors (Remote), or on both (Allnodes).
type JoinMode int

const (
	Remote JoinMode = iota // the paper's default for its join benchmarks
	Local
	AllNodes
)

func (m JoinMode) String() string {
	switch m {
	case Local:
		return "local"
	case Remote:
		return "remote"
	default:
		return "allnodes"
	}
}

// Overflow-resolution seeds. Round seeds differ from LoadSeed: after the
// first overflow Gamma switches hash functions so overflow tuples spread
// across all joining processors, which also destroys the locality of Local
// joins on the partitioning attribute (§6.2.2's crossover).
const (
	ovfBitSeed   uint64 = 0x0badcafe
	roundSeedOff uint64 = 0x5eed0000
)

func roundSeed(level int) uint64 { return roundSeedOff + uint64(level) }

func roundStream(level int, probe bool) streamID {
	s := streamRound + streamID(2*level)
	if probe {
		s++
	}
	return s
}

// Control messages from the scheduler to the operators that consume a port.

type ctlKind int

const (
	ctlRoundBuild ctlKind = iota
	ctlRoundProbe
	// ctlClose carries the number of end-of-stream messages a consumer
	// must see before its stream is complete.
	ctlClose
	ctlFinish
	// ctlAbort tells an operator to discard its work and acknowledge with
	// abortedMsg — part of mid-query failover teardown.
	ctlAbort
)

// abortSignal unwinds an operator out of whatever phase it is in when a
// ctlAbort arrives; opExit turns it into cleanup plus an acknowledgement.
type abortSignal struct{}

type opCtl struct {
	kind      ctlKind
	level     int
	expectEOS int // ctlClose
}

// recvOp receives one message of an operator's own protocol (not a tuple
// stream; see recvStream). A ctlAbort unwinds the operator with abortSignal.
func recvOp(p *sim.Proc, port *nose.Port) any {
	pl := port.Recv(p).Payload
	if c, ok := pl.(opCtl); ok && c.kind == ctlAbort {
		panic(abortSignal{})
	}
	return pl
}

// builtMsg: a join site finished (re)building its hash table.
type builtMsg struct {
	op         string
	site       int
	overflowed bool
	filter     *BitFilter // nil when overflow occurred or filters disabled
}

// probedMsg: a join site finished a probing phase.
type probedMsg struct {
	op             string
	site           int
	produced       int
	overflowEvents int
	newSpools      []spoolInfo
}

// spoolInfo hands a site's overflow partition files to the scheduler so it
// can schedule the redistribution scans of the next round.
type spoolInfo struct {
	level       int
	owner       *nose.Node
	build       *wiss.File
	probe       *wiss.File
	buildTuples int
	probeTuples int
}

// JoinAlgorithm selects the overflow strategy.
type JoinAlgorithm int

const (
	// SimpleHash is the distributed Simple hash-partitioned join the
	// paper measures ([DEWI85], §6) — it deteriorates rapidly under
	// memory pressure because each pass re-spools everything that still
	// does not fit.
	SimpleHash JoinAlgorithm = iota
	// HybridHash is the parallel Hybrid hash join §8 announces as the
	// replacement: the build relation is split up front into one
	// in-memory partition plus enough spooled partitions that each fits
	// memory, so spilled tuples are written and read exactly once.
	HybridHash
)

func (a JoinAlgorithm) String() string {
	if a == HybridHash {
		return "hybrid"
	}
	return "simple"
}

// joinSpec configures one join operator process.
type joinSpec struct {
	m          *Machine
	opID       string
	site       int
	node       *nose.Node
	port       *nose.Port
	sched      *nose.Port
	from       *sim.Proc // initiating process (the scheduler)
	buildAttr  rel.Attr
	probeAttr  rel.Attr
	nSites     int // number of join sites (round-stream producers)
	nBuild     int // build-stream producers
	nProbe     int // probe-stream producers; <0 means wait for ctlClose
	memBytes   int
	outStream  streamID
	outPorts   []*nose.Port
	mkOutRoute func() RouteFn
	makeFilter bool
	filterBits int
	algo       JoinAlgorithm
	// hybridParts is the number of spooled partitions the optimizer
	// planned from its estimate of the build relation's size (HybridHash).
	hybridParts int
}

// spawnJoin starts a join operator: build phase, probe phase, then overflow
// rounds directed by the scheduler, implementing the distributed Simple
// hash-partitioned join of [DEWI85] (§6).
func spawnJoin(spec joinSpec) {
	m := spec.m
	// Spool files are dropped on an abort or a failed spool drive:
	// bookkeeping only, the cheap recovery path.
	jt := newJoinTable(spec)
	o := opSpec{op: spec.opID, class: "join", site: spec.site, node: spec.node, in: spec.port, sched: spec.sched, drop: jt.dropAllSpools}
	m.spawnOp(spec.from, o, func(p *sim.Proc) (int, any) {
		phase := func(kind trace.Kind, label string, n int) {
			if !m.Sim.Tracing() {
				return
			}
			p.Emit(trace.Event{At: int64(p.Now()), Kind: kind, Op: spec.opID, Node: spec.node.ID, Site: spec.site, Class: label, N: n})
		}

		// Main build phase.
		phase(trace.KindPhaseStart, "build", 0)
		jt.beginPhase(0)
		recvStream(p, spec.port, streamBuild, spec.nBuild, func(ts []rel.Tuple) {
			spec.node.UseCPU(p, m.Prm.Engine.InstrPerTupleBuild*len(ts))
			for _, t := range ts {
				jt.insert(p, t)
			}
		})
		var filter *BitFilter
		if spec.makeFilter && !jt.phaseOverflowed {
			filter = jt.buildFilter(spec.filterBits)
		}
		phase(trace.KindPhaseDone, "build", 0)
		nose.SendCtl(p, spec.node, spec.sched, builtMsg{op: spec.opID, site: spec.site, overflowed: jt.phaseOverflowed, filter: filter})

		// Main probe phase.
		phase(trace.KindPhaseStart, "probe", 0)
		jt.runProbePhase(p, streamProbe, spec.nProbe)
		phase(trace.KindPhaseDone, "probe", jt.produced)

		// Overflow rounds, until the scheduler releases the operator. Its
		// output went out per probe phase, so its span's N stays 0.
		for {
			pl := recvOp(p, spec.port)
			jc, ok := pl.(opCtl)
			if !ok {
				panic(fmt.Sprintf("join: unexpected message %T between phases", pl))
			}
			switch jc.kind {
			case ctlFinish:
				return 0, nil
			case ctlRoundBuild:
				var label string
				if m.Sim.Tracing() {
					label = fmt.Sprintf("ovfbuild-%d", jc.level)
				}
				phase(trace.KindPhaseStart, label, 0)
				jt.beginPhase(jc.level)
				recvStream(p, spec.port, roundStream(jc.level, false), spec.nSites, func(ts []rel.Tuple) {
					spec.node.UseCPU(p, m.Prm.Engine.InstrPerTupleBuild*len(ts))
					for _, t := range ts {
						jt.insert(p, t)
					}
				})
				phase(trace.KindPhaseDone, label, 0)
				nose.SendCtl(p, spec.node, spec.sched, builtMsg{op: spec.opID, site: spec.site, overflowed: jt.phaseOverflowed})
			case ctlRoundProbe:
				var label string
				if m.Sim.Tracing() {
					label = fmt.Sprintf("ovfprobe-%d", jc.level)
				}
				phase(trace.KindPhaseStart, label, 0)
				jt.runProbePhase(p, roundStream(jc.level, true), spec.nSites)
				phase(trace.KindPhaseDone, label, jt.produced)
			default:
				panic("join: unexpected control kind")
			}
		}
	})
}

// recvStream consumes one stream: data packets and EOS messages until expect
// producers have closed. expect < 0 waits for a ctlClose carrying the
// count (needed when the producer side has a dynamic number of phases).
func recvStream(p *sim.Proc, port *nose.Port, want streamID, expect int, onPacket func([]rel.Tuple)) {
	eos := 0
	for expect < 0 || eos < expect {
		msg := port.Recv(p)
		switch pl := msg.Payload.(type) {
		case packet:
			if pl.stream != want {
				panic(fmt.Sprintf("recvStream: stream %d, want %d", pl.stream, want))
			}
			onPacket(pl.tuples)
			putTupleBuf(pl.tuples)
		case eosPayload:
			if pl.stream != want {
				panic(fmt.Sprintf("recvStream: eos for stream %d, want %d", pl.stream, want))
			}
			eos++
		case opCtl:
			switch pl.kind {
			case ctlClose:
				expect = pl.expectEOS
			case ctlAbort:
				panic(abortSignal{})
			default:
				panic("recvStream: unexpected control kind")
			}
		default:
			panic(fmt.Sprintf("recvStream: unexpected message %T", msg.Payload))
		}
	}
}

// joinTable is the per-site hash table with Simple hash-join overflow
// resolution: when memory fills, a second hash function splits off a
// subpartition whose build and probe tuples are spooled to temporary files
// and joined recursively (§6, [DEWI85]).
type joinTable struct {
	spec  joinSpec
	prm   int // memory budget in bytes
	table map[int32][]rel.Tuple
	bytes int

	curRound       int
	evictLevels    []int // ascending
	spools         map[int]*spoolPair
	dirtyLevels    map[int]bool
	overflowEvents int

	phaseOverflowed bool
	produced        int
}

type spoolPair struct {
	level   int
	owner   *nose.Node
	build   *wiss.File
	probe   *wiss.File
	buildAp *wiss.Appender
	probeAp *wiss.Appender
	buildN  int
	probeN  int
	// pageCredit counts tuples spooled since the last charged page
	// transfer from the join node to the spool node.
	buildCredit int
	probeCredit int
}

func newJoinTable(spec joinSpec) *joinTable {
	return &joinTable{
		spec:        spec,
		prm:         spec.memBytes,
		spools:      make(map[int]*spoolPair),
		dirtyLevels: make(map[int]bool),
	}
}

// beginPhase resets the in-memory table for a new (round) build.
func (jt *joinTable) beginPhase(round int) {
	jt.curRound = round
	jt.table = make(map[int32][]rel.Tuple)
	jt.bytes = 0
	jt.evictLevels = nil
	jt.phaseOverflowed = false
}

// ovfBit reports whether value v belongs to overflow slice `slice` of the
// given pass. Slices are eighths of the key space: each overflow resolution
// splits off one 1/8 slice (slices 1-7 use the pass's first subpartitioning
// hash, 8-14 re-split the survivors with a second, and so on), so a marginal
// overflow spools only a small fraction — the source of §6.2.2's "relative
// flatness from zero to two overflows". The hash depends on the pass so each
// round re-partitions its incoming data afresh.
func ovfBit(v int32, round, slice int) bool {
	gen := uint64((slice - 1) / 7)
	bucket := uint64(1 + (slice-1)%7)
	return rel.Hash64(v, ovfBitSeed+uint64(round)*0x51ed+gen*0x9e37)%8 == bucket
}

// spoolLevel returns the spool destination for value v: every slice evicted
// during the current phase spools into ONE overflow partition (level
// curRound+1), which the next round re-reads in full — the pass structure
// that makes the Simple hash join deteriorate so rapidly once memory is
// short ([DEWI85], §6.2.2). Returns 0 when v stays in memory.
func (jt *joinTable) spoolLevel(v int32) int {
	if jt.spec.algo == HybridHash && jt.curRound == 0 && jt.spec.hybridParts > 0 {
		// Up-front partitioning: partition 0 stays in memory, the rest
		// spool once each.
		h := int(rel.Hash64(v, ovfBitSeed^0x4b1d) % uint64(jt.spec.hybridParts+1))
		if h > 0 {
			return h
		}
		// Partition 0 can still overflow if the optimizer's estimate
		// was short; dynamic slices spill past the planned partitions.
		for _, l := range jt.evictLevels {
			if ovfBit(v, jt.curRound, l) {
				return jt.spec.hybridParts + 1
			}
		}
		return 0
	}
	for _, l := range jt.evictLevels {
		if ovfBit(v, jt.curRound, l) {
			return jt.curRound + jt.spec.hybridParts + 1
		}
	}
	return 0
}

func (jt *joinTable) insert(p *sim.Proc, t rel.Tuple) {
	v := t.Get(jt.spec.buildAttr)
	if l := jt.spoolLevel(v); l > 0 {
		jt.spool(p, l, false, t)
		return
	}
	jt.table[v] = append(jt.table[v], t)
	jt.bytes += jt.spec.m.Prm.TupleBytes
	for jt.bytes > jt.prm {
		if !jt.overflow(p) {
			break
		}
	}
}

// overflow performs one overflow resolution: pick the next subpartition
// hash bit, evict every resident tuple it claims to the spool files, and
// divert future tuples likewise. Reports whether any tuples were evicted.
func (jt *joinTable) overflow(p *sim.Proc) bool {
	next := 1
	if len(jt.evictLevels) > 0 {
		next = jt.evictLevels[len(jt.evictLevels)-1] + 1
	}
	if next > 256 {
		panic("join: overflow slicing too deep")
	}
	jt.evictLevels = append(jt.evictLevels, next)
	if !jt.phaseOverflowed {
		// One "partition overflow resolution" per pass, the unit §6.2.2
		// reports (six per diskless processor for the million-tuple
		// joins); additional slice evictions within the pass refine the
		// same resolution.
		jt.overflowEvents++
	}
	jt.phaseOverflowed = true

	var keys []int32
	for v := range jt.table {
		if ovfBit(v, jt.curRound, next) {
			keys = append(keys, v)
		}
	}
	slices.Sort(keys)
	dst := jt.curRound + jt.spec.hybridParts + 1
	for _, v := range keys {
		for _, t := range jt.table[v] {
			jt.spool(p, dst, false, t)
			jt.bytes -= jt.spec.m.Prm.TupleBytes
		}
		delete(jt.table, v)
	}
	return len(keys) > 0
}

// spool writes a tuple to the (site, level) overflow partition file. The
// file lives on the node's spool target; diskless processors pay network
// transfer per spooled page on top of the drive writes.
func (jt *joinTable) spool(p *sim.Proc, level int, probe bool, t rel.Tuple) {
	sp := jt.spools[level]
	if sp == nil {
		owner := jt.spec.node.SpoolNode
		st := jt.spec.m.StoreOf(owner)
		sp = &spoolPair{
			level: level,
			owner: owner,
			build: st.CreateFile(fmt.Sprintf("%s.ovf%d.build", jt.spec.opID, level)),
			probe: st.CreateFile(fmt.Sprintf("%s.ovf%d.probe", jt.spec.opID, level)),
		}
		jt.spools[level] = sp
	}
	jt.dirtyLevels[level] = true
	m := jt.spec.m
	perPage := m.Prm.TuplesPerPage()
	if probe {
		if sp.probeAp == nil {
			sp.probeAp = sp.probe.NewAppender()
		}
		sp.probeAp.Append(p, t)
		sp.probeN++
		sp.probeCredit++
		if sp.probeCredit >= perPage {
			sp.probeCredit = 0
			m.Net.TransferBulk(p, jt.spec.node, sp.owner, m.Prm.PageBytes)
		}
	} else {
		if sp.buildAp == nil {
			sp.buildAp = sp.build.NewAppender()
		}
		sp.buildAp.Append(p, t)
		sp.buildN++
		sp.buildCredit++
		if sp.buildCredit >= perPage {
			sp.buildCredit = 0
			m.Net.TransferBulk(p, jt.spec.node, sp.owner, m.Prm.PageBytes)
		}
	}
}

// probe matches one probe tuple against the table, emitting the result
// tuple for each match, or spools it if its subpartition overflowed.
func (jt *joinTable) probe(p *sim.Proc, out *splitTable, t rel.Tuple) {
	v := t.Get(jt.spec.probeAttr)
	if l := jt.spoolLevel(v); l > 0 {
		jt.spool(p, l, true, t)
		return
	}
	for range jt.table[v] {
		jt.produced++
		out.send(p, t)
	}
}

// runProbePhase consumes one probe stream, emits matches through a fresh
// split table, flushes spools, and reports to the scheduler.
func (jt *joinTable) runProbePhase(p *sim.Proc, stream streamID, expect int) {
	spec := jt.spec
	m := spec.m
	jt.produced = 0
	out := newSplitTable(spec.node, m.Prm, spec.outStream, spec.outPorts, spec.mkOutRoute())
	recvStream(p, spec.port, stream, expect, func(ts []rel.Tuple) {
		spec.node.UseCPU(p, m.Prm.Engine.InstrPerTupleProbe*len(ts))
		for _, t := range ts {
			jt.probe(p, out, t)
		}
	})
	out.close(p)
	news := jt.closeDirtySpools(p)
	// The spool pair just consumed by this round can never be written
	// again (new overflow levels are strictly deeper), so free it.
	if jt.curRound > 0 {
		if sp := jt.spools[jt.curRound]; sp != nil {
			st := m.StoreOf(sp.owner)
			st.DropFile(sp.build)
			st.DropFile(sp.probe)
			delete(jt.spools, jt.curRound)
		}
	}
	nose.SendCtl(p, spec.node, spec.sched, probedMsg{
		op:             spec.opID,
		site:           spec.site,
		produced:       jt.produced,
		overflowEvents: jt.overflowEvents,
		newSpools:      news,
	})
}

// closeDirtySpools flushes every spool file written during this phase and
// returns their descriptors for the scheduler's round queue.
func (jt *joinTable) closeDirtySpools(p *sim.Proc) []spoolInfo {
	var levels []int
	for l := range jt.dirtyLevels {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	var out []spoolInfo
	for _, l := range levels {
		sp := jt.spools[l]
		if sp.buildAp != nil {
			sp.buildAp.Close(p)
			sp.buildAp = nil
		}
		if sp.probeAp != nil {
			sp.probeAp.Close(p)
			sp.probeAp = nil
		}
		out = append(out, spoolInfo{
			level:       l,
			owner:       sp.owner,
			build:       sp.build,
			probe:       sp.probe,
			buildTuples: sp.buildN,
			probeTuples: sp.probeN,
		})
	}
	jt.dirtyLevels = make(map[int]bool)
	return out
}

// dropAllSpools releases every overflow partition file of an aborted join.
// Pure bookkeeping — the §4 observation that aborting a "retrieve into"
// only requires deleting files, so the abort path pays no simulated I/O.
func (jt *joinTable) dropAllSpools() {
	var levels []int
	for l := range jt.spools {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	for _, l := range levels {
		sp := jt.spools[l]
		st := jt.spec.m.StoreOf(sp.owner)
		st.DropFile(sp.build)
		st.DropFile(sp.probe)
	}
	jt.spools = make(map[int]*spoolPair)
	jt.dirtyLevels = make(map[int]bool)
}

// buildFilter snapshots the table's keys into a Babb bit-vector filter.
func (jt *joinTable) buildFilter(bits int) *BitFilter {
	f := NewBitFilter(bits, ovfBitSeed^0xf117e4)
	for v := range jt.table {
		f.Add(v)
	}
	return f
}
