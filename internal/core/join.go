package core

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"

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
// stream; see streamIn). A ctlAbort unwinds the operator with abortSignal.
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
	level        int
	owner        *nose.Node
	build, probe *wiss.File
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
		jt.build(p, streamBuild, spec.nBuild)
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
				jt.build(p, roundStream(jc.level, false), spec.nSites)
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

// streamIn is an operator's receive loop over one input stream, as an
// itinerary (sim.Proc.Steps): the port's messages until expect producers have
// closed the stream (expect < 0: until a ctlClose carries the count). A data
// packet costs instr CPU per tuple; then take sees each tuple in kernel
// context and returns how many times to route it through out (a probe's
// matches) and the sub-itinerary it leaves due, if any (a page write, a
// spooled page), run before the next tuple, after which halt may end the
// loop. A ctlAbort unwinds the process with abortSignal. take nil only counts
// the tuples.
type streamIn struct {
	port   *nose.Port
	want   streamID
	expect int
	node   *nose.Node
	instr  int
	take   func(t *rel.Tuple) (sends int, sub func() (sim.Time, bool))
	out    *splitTable
	halt   func() bool
	tuples int // tuples received

	p                *sim.Proc
	eos              int
	pkt              *packet                 // the packet in hand
	next             int                     // its next tuple
	t                *rel.Tuple              // the tuple being routed through out
	sends            int                     // routings of t still due
	sub              func() (sim.Time, bool) // the stage due before the next tuple
	recving, aborted bool
}

func (in *streamIn) run(p *sim.Proc) {
	in.p = p
	p.Steps(in.step)
	if in.aborted {
		panic(abortSignal{})
	}
}

func (in *streamIn) step() (sim.Time, bool) {
	for {
		if in.recving {
			if at, more := in.port.StepRecv(); more {
				return at, true
			}
			in.recving = false
			switch pl := in.port.Received().Payload.(type) {
			case *packet:
				if pl.stream != in.want {
					panic(fmt.Sprintf("streamIn: stream %d, want %d", pl.stream, in.want))
				}
				in.pkt, in.next = pl, 0
				in.tuples += len(pl.tuples)
				if in.take == nil {
					in.next = len(pl.tuples)
				}
				if instr := in.instr * len(pl.tuples); instr > 0 {
					return in.node.ReserveCPU(instr), true
				}
			case eosPayload:
				if pl.stream != in.want {
					panic(fmt.Sprintf("streamIn: eos for stream %d, want %d", pl.stream, in.want))
				}
				in.eos++
			case opCtl:
				switch pl.kind {
				case ctlClose:
					in.expect = pl.expectEOS
				case ctlAbort:
					in.aborted = true
					return 0, false
				default:
					panic("streamIn: unexpected control kind")
				}
			default:
				panic(fmt.Sprintf("streamIn: unexpected message %T", pl))
			}
			continue
		}
		if in.pkt != nil {
			if in.sub != nil {
				if at, more := in.sub(); more {
					return at, true
				}
				if in.sub = nil; in.halt != nil && in.halt() {
					return 0, false
				}
			}
			switch {
			case in.sends > 0:
				in.sends--
				if d := in.out.put(in.t); d >= 0 {
					in.out.start(in.p, d, false)
					in.sub = in.out.stepFn
				}
			case in.next < len(in.pkt.tuples):
				in.t = &in.pkt.tuples[in.next]
				in.next++
				in.sends, in.sub = in.take(in.t)
			default:
				putPacket(in.pkt)
				in.pkt = nil
			}
			continue
		}
		if in.expect >= 0 && in.eos >= in.expect {
			return 0, false
		}
		in.port.StartRecv(in.p)
		in.recving = true
	}
}

// joinTable is the per-site hash table with Simple hash-join overflow
// resolution: when memory fills, a second hash function splits off a
// subpartition whose build and probe tuples are spooled to temporary files
// and joined recursively (§6, [DEWI85]).
//
// The resident build tuples are one flat array in arrival order, and counts
// says how many carry each key: all a probe needs. An overflow walks the
// array for the tuples it evicts.
type joinTable struct {
	spec   joinSpec
	prm    int // memory budget in bytes
	tuples []rel.Tuple
	counts keyCounts
	bytes  int

	curRound       int
	evictLevels    []int // ascending
	spools         map[int]*spoolPair
	dirtyLevels    map[int]bool
	overflowEvents int

	phaseOverflowed bool
	produced        int

	// The spooling a tuple left due, in stage form (see drain): the page
	// write armed, the page transfer to the spool node, the evicted tuples
	// still to spool, and whether the overflow resolution goes on.
	wr        *wiss.Appender
	ship      nose.Bulk
	evicted   []rel.Tuple
	resolving bool
	drainFn   func() (sim.Time, bool)
}

// spoolPair is one overflow partition of a site: a build and a probe spool
// file on the site's spool node.
type spoolPair struct {
	level        int
	owner        *nose.Node
	build, probe spoolFile
}

// spoolFile is one side of a spoolPair: its file, the appender filling it
// in this phase, and the tuples spooled since the last page transfer.
type spoolFile struct {
	*wiss.File
	ap     *wiss.Appender
	credit int
}

func newJoinTable(spec joinSpec) *joinTable {
	jt := &joinTable{
		spec:        spec,
		prm:         spec.memBytes,
		spools:      make(map[int]*spoolPair),
		dirtyLevels: make(map[int]bool),
	}
	jt.drainFn = jt.drain
	return jt
}

// beginPhase resets the in-memory table for a new (round) build.
func (jt *joinTable) beginPhase(round int) {
	jt.curRound = round
	jt.tuples = jt.tuples[:0]
	jt.counts.reset()
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
	}
	for _, l := range jt.evictLevels {
		if ovfBit(v, jt.curRound, l) {
			return jt.ovfLevel()
		}
	}
	return 0
}

// ovfLevel is the overflow partition of the current phase.
func (jt *joinTable) ovfLevel() int { return jt.curRound + jt.spec.hybridParts + 1 }

// build consumes one build stream into the table.
func (jt *joinTable) build(p *sim.Proc, stream streamID, expect int) {
	jt.consume(p, stream, expect, jt.spec.m.Prm.Engine.InstrPerTupleBuild, jt.insert, nil)
}

// consume runs one input stream through take. A spool write that found its
// drive failed ends the stream and is then made in p: it panics with
// disk.FailedError.
func (jt *joinTable) consume(p *sim.Proc, stream streamID, expect, instr int, take func(*rel.Tuple) (int, func() (sim.Time, bool)), out *splitTable) {
	spec := jt.spec
	in := streamIn{
		port: spec.port, want: stream, expect: expect, node: spec.node, instr: instr,
		take: take, out: out, halt: func() bool { return jt.wr != nil },
	}
	in.run(p)
	if jt.wr != nil {
		jt.wr.Fault()
	}
}

// insert puts t in the table, or spools it if its key's subpartition
// overflowed, and returns the drain if that left spooling due.
func (jt *joinTable) insert(t *rel.Tuple) (int, func() (sim.Time, bool)) {
	v := t.Get(jt.spec.buildAttr)
	if l := jt.spoolLevel(v); l > 0 {
		jt.spool(l, false, t)
		return 0, jt.drainFn
	}
	jt.tuples = append(jt.tuples, *t)
	jt.counts.add(v)
	jt.bytes += jt.spec.m.Prm.TupleBytes
	if jt.resolving = jt.bytes > jt.prm; jt.resolving {
		return 0, jt.drainFn
	}
	return 0, nil
}

// drain is a sub-itinerary (sim.Proc.Steps) that takes the spooling left
// due: the page write armed, the page transfer, then each evicted tuple's
// spool, and further overflow resolutions while the table exceeds memory.
// It stops early, with wr still set, at a write that found its drive failed.
func (jt *joinTable) drain() (sim.Time, bool) {
	for {
		if jt.wr != nil {
			if at, more := jt.wr.Step(); more || jt.wr.Failed() {
				return at, more
			}
			jt.wr = nil
		}
		if at, more := jt.ship.Step(); more {
			return at, true
		}
		switch {
		case len(jt.evicted) > 0:
			jt.spool(jt.ovfLevel(), false, &jt.evicted[0])
			jt.evicted = jt.evicted[1:]
		case jt.resolving && jt.bytes > jt.prm:
			jt.resolving = jt.overflow()
		default:
			return 0, false
		}
	}
}

// overflow starts one overflow resolution: pick the next subpartition hash
// bit, take every resident tuple it claims out of the table for the drain to
// spool, and divert future tuples likewise. Reports whether any tuples were
// evicted.
func (jt *joinTable) overflow() bool {
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

	jt.evicted = jt.evict(next)
	jt.bytes -= len(jt.evicted) * jt.spec.m.Prm.TupleBytes
	return len(jt.evicted) > 0
}

// evict takes the resident tuples that overflow slice `slice` claims out of
// the table and returns them in spool order: by key, each key's in arrival
// order. The rest stay, in arrival order.
func (jt *joinTable) evict(slice int) []rel.Tuple {
	attr := jt.spec.buildAttr
	var evicted []rel.Tuple
	kept := jt.tuples[:0]
	for _, t := range jt.tuples {
		if ovfBit(t.Get(attr), jt.curRound, slice) {
			evicted = append(evicted, t)
		} else {
			kept = append(kept, t)
		}
	}
	slices.SortStableFunc(evicted, func(a, b rel.Tuple) int { return cmp.Compare(a.Get(attr), b.Get(attr)) })
	jt.tuples = kept
	jt.counts.reset()
	for i := range kept {
		jt.counts.add(kept[i].Get(attr))
	}
	return evicted
}

// spool writes a tuple to one side of the (site, level) overflow partition
// and arms the page write and transfer that leaves due. The files live on the
// node's spool target; diskless processors pay network transfer per spooled
// page on top of the drive writes.
func (jt *joinTable) spool(level int, probe bool, t *rel.Tuple) {
	m := jt.spec.m
	sp := jt.spools[level]
	if sp == nil {
		sp = &spoolPair{level: level, owner: jt.spec.node.SpoolNode}
		st := m.StoreOf(sp.owner)
		sp.build.File = st.CreateFile(fmt.Sprintf("%s.ovf%d.build", jt.spec.opID, level))
		sp.probe.File = st.CreateFile(fmt.Sprintf("%s.ovf%d.probe", jt.spec.opID, level))
		jt.spools[level] = sp
	}
	jt.dirtyLevels[level] = true
	f := &sp.build
	if probe {
		f = &sp.probe
	}
	if f.ap == nil {
		f.ap = f.NewAppender()
	}
	if f.ap.Put(*t) {
		jt.wr = f.ap
	}
	if f.credit++; f.credit >= m.Prm.TuplesPerPage() {
		f.credit = 0
		jt.ship.Start(jt.spec.node, sp.owner, m.Prm.PageBytes)
	}
}

// probe matches one probe tuple against the table and returns the number of
// result tuples it yields, or, if its subpartition overflowed, spools it and
// returns the drain.
func (jt *joinTable) probe(t *rel.Tuple) (int, func() (sim.Time, bool)) {
	v := t.Get(jt.spec.probeAttr)
	if l := jt.spoolLevel(v); l > 0 {
		jt.spool(l, true, t)
		return 0, jt.drainFn
	}
	k := jt.counts.count(v)
	jt.produced += k
	return k, nil
}

// runProbePhase consumes one probe stream, emits matches through a fresh
// split table, flushes spools, and reports to the scheduler.
func (jt *joinTable) runProbePhase(p *sim.Proc, stream streamID, expect int) {
	spec := jt.spec
	m := spec.m
	jt.produced = 0
	out := newSplitTable(spec.node, m.Prm, spec.outStream, spec.outPorts, spec.mkOutRoute())
	jt.consume(p, stream, expect, m.Prm.Engine.InstrPerTupleProbe, jt.probe, out)
	out.close(p)
	news := jt.closeDirtySpools(p)
	// The spool pair just consumed by this round can never be written
	// again (new overflow levels are strictly deeper), so free it.
	if sp := jt.spools[jt.curRound]; sp != nil {
		jt.drop(sp)
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
	var out []spoolInfo
	for _, l := range slices.Sorted(maps.Keys(jt.dirtyLevels)) {
		sp := jt.spools[l]
		for _, f := range []*spoolFile{&sp.build, &sp.probe} {
			if f.ap != nil {
				f.ap.Close(p)
				f.ap = nil
			}
		}
		out = append(out, spoolInfo{level: l, owner: sp.owner, build: sp.build.File, probe: sp.probe.File})
	}
	clear(jt.dirtyLevels)
	return out
}

// drop releases an overflow partition's files.
func (jt *joinTable) drop(sp *spoolPair) {
	st := jt.spec.m.StoreOf(sp.owner)
	st.DropFile(sp.build.File)
	st.DropFile(sp.probe.File)
	delete(jt.spools, sp.level)
}

// dropAllSpools releases every overflow partition file of an aborted join.
// Pure bookkeeping — the §4 observation that aborting a "retrieve into"
// only requires deleting files, so the abort path pays no simulated I/O.
func (jt *joinTable) dropAllSpools() {
	for _, l := range slices.Sorted(maps.Keys(jt.spools)) {
		jt.drop(jt.spools[l])
	}
	clear(jt.dirtyLevels)
}

// buildFilter snapshots the table's keys into a Babb bit-vector filter.
func (jt *joinTable) buildFilter(bits int) *BitFilter {
	f := NewBitFilter(bits, ovfBitSeed^0xf117e4)
	for _, c := range jt.counts.slots {
		if c.n > 0 {
			f.Add(c.key)
		}
	}
	return f
}

// keyCounts is an open-addressing table (linear probing, power-of-two size)
// of the build keys resident at a join site and how many tuples carry each.
type keyCounts struct {
	slots []keyCount
	keys  int
	shift uint // a key's home slot is the top bits of its hash
}

type keyCount struct {
	key, n int32 // n == 0: a free slot
}

// slot returns v's slot, or the free slot where v would go.
func (kc *keyCounts) slot(v int32) *keyCount {
	mask := len(kc.slots) - 1
	for i := int(uint32(v) * 0x9e3779b1 >> kc.shift); ; i = (i + 1) & mask {
		if c := &kc.slots[i]; c.n == 0 || c.key == v {
			return c
		}
	}
}

// count returns the number of tuples with key v.
func (kc *keyCounts) count(v int32) int {
	if kc.keys == 0 {
		return 0
	}
	return int(kc.slot(v).n)
}

// add counts one more tuple with key v, growing the table to keep it at most
// three quarters full.
func (kc *keyCounts) add(v int32) {
	if 4*(kc.keys+1) > 3*len(kc.slots) {
		old := kc.slots
		kc.slots = make([]keyCount, max(2*len(old), 64))
		kc.shift = uint(32 - bits.TrailingZeros(uint(len(kc.slots))))
		for _, c := range old {
			if c.n > 0 {
				*kc.slot(c.key) = c
			}
		}
	}
	c := kc.slot(v)
	if c.n == 0 {
		c.key = v
		kc.keys++
	}
	c.n++
}

// reset empties the table, keeping its size.
func (kc *keyCounts) reset() {
	clear(kc.slots)
	kc.keys = 0
}
