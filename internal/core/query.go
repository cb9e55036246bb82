package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// SelectQuery selects tuples from one relation and stores the result in a
// new round-robin-partitioned relation (or returns them to the host).
type SelectQuery struct {
	Scan       ScanSpec
	ResultName string
	// ToHost returns result tuples to the host instead of storing them
	// (the paper's single-tuple select and aggregate results).
	ToHost bool
	// Project keeps only the listed attributes in the result; nil keeps
	// the whole 208-byte tuple. Projection narrows the stream, reducing
	// network and result-storage cost.
	Project []rel.Attr
}

// JoinQuery is a one- or two-stage hash join. Stage one builds on Build and
// probes with Probe; if Build2 is set, stage one's output stream immediately
// probes a second join whose table is built from Build2 (joinCselAselB).
type JoinQuery struct {
	Build     ScanSpec
	BuildAttr rel.Attr
	Probe     ScanSpec
	ProbeAttr rel.Attr

	// Second stage (optional). Probe2Attr is the attribute of the stage-
	// one output tuple used to probe the second table.
	Build2     *ScanSpec
	Build2Attr rel.Attr
	Probe2Attr rel.Attr

	Mode JoinMode
	// Algorithm selects the overflow strategy: the paper's SimpleHash
	// (default) or the HybridHash replacement §8 announces.
	Algorithm JoinAlgorithm
	// UseBitFilter inserts Babb bit-vector filters into the probe-side
	// split tables (§2); disabled by default, as in the paper's tests.
	UseBitFilter bool
	// MemPerJoinBytes overrides config.Memory.JoinTableBytes for each
	// join operator (the Figure 13 memory sweep).
	MemPerJoinBytes int
	ResultName      string
}

// Result reports a query's outcome and simulated cost.
type Result struct {
	Elapsed    sim.Dur
	Tuples     int
	ResultName string
	// Overflows (joins) is the number of overflow resolutions observed at
	// the most-overflowed site.
	Overflows int
	// Counters is the machine's activity during the query: network
	// messages, buffer-pool pages, busy time; its Verdict names the resource
	// that bound the query, traced or not. The deltas are machine-wide, so
	// exact per query for serially executed queries; they stay zero for
	// queries run concurrently (RunConcurrent).
	Counters Counters
	// Query is the trace span id ("q1", "q2", ...) assigned at launch.
	Query string

	// Err is non-nil when the query could not complete: some fragment had no
	// readable copy, failover retries were exhausted, or an update lost a
	// site it runs on (*ErrUnavailable). Only this query fails; the machine
	// keeps serving others.
	Err error
	// Degraded reports that the successful attempt read at least one backup
	// copy in place of a lost primary — the result is correct but was
	// produced in degraded mode, and is never silently presented as healthy.
	Degraded bool
	// Attempts is the number of attempts executed (1 for a clean run).
	Attempts int
}

// opSpec names one Gamma operator process. op is its (attempt-tagged) id:
// the span's Op, and the key of its reports and of its abort
// acknowledgement. class is the kind op-start records; site is its index in
// its group; in is its input port (nil for a scan); sched is the scheduler
// port it reports to.
type opSpec struct {
	op, class string
	site      int
	node      *nose.Node
	in, sched *nose.Port
	// uncharged starts the process without the scheduler's initiation
	// messages: the host's result collector.
	uncharged bool
	// drop, if set, releases the operator's temporary files when it aborts.
	drop func()
}

// spawnOp is every Gamma operator's lifecycle. It starts the process the way
// Gamma's scheduler initiates an operator (§6.2.3): MsgsPerOperatorInit
// control messages of CtlMsg each, serialized on the scheduler's CPU and
// counted as its control-plane time (so a verdict's "ctl" class can surface
// §6.2.3's scheduler-bound short queries), and then the start itself crosses
// the ring (Machine.start), one Net.MinLatency later. The process defers
// opExit, brackets body with the op-start/op-done span (N is the count body
// returns), sends the report body returns, if any, to the scheduler and
// closes its input port. An operator that aborts or dies leaves its span
// open.
func (m *Machine) spawnOp(from *sim.Proc, o opSpec, body func(p *sim.Proc) (n int, report any)) {
	if !o.uncharged {
		cost := sim.Dur(m.Prm.Engine.MsgsPerOperatorInit) * m.Prm.Net.CtlMsg
		m.Sched.UseCtl(from, cost)
		if m.Sim.Tracing() {
			from.Emit(trace.Event{At: int64(from.Now()), Kind: trace.KindCtlMsg, From: m.Sched.ID, To: o.node.ID, Dur: int64(cost)})
		}
	}
	m.start(from, o.node, fmt.Sprintf("%s@%d", o.op, o.node.ID), func(p *sim.Proc) {
		if o.in != nil && o.in.Closed() {
			return // the node went down, taking the mailbox, after the scheduler set the operator up
		}
		defer opExit(p, &o)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpStart, Op: o.op, Node: o.node.ID, Site: o.site, Class: o.class})
		n, report := body(p)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpDone, Op: o.op, Node: o.node.ID, Site: o.site, N: n})
		if report != nil {
			nose.SendCtl(p, o.node, o.sched, report)
		}
		if o.in != nil {
			o.in.Close()
		}
	})
}

// JoinNodes returns the processors that execute join (and aggregate)
// operators in a mode, excluding crashed nodes (a node with only a failed
// drive still joins; its spooling was re-pointed at a surviving drive). With
// no surviving processor it returns *ErrUnavailable.
func (m *Machine) JoinNodes(mode JoinMode) ([]*nose.Node, error) {
	var cand []*nose.Node
	switch mode {
	case Local:
		cand = m.Disk
	case Remote:
		if len(m.Diskless) > 0 {
			cand = m.Diskless
		} else {
			cand = m.Disk
		}
	default:
		cand = append(append([]*nose.Node(nil), m.Disk...), m.Diskless...)
	}
	out := make([]*nose.Node, 0, len(cand))
	for _, nd := range cand {
		if !nd.Failed() {
			out = append(out, nd)
		}
	}
	if len(out) == 0 {
		return nil, &ErrUnavailable{}
	}
	return out, nil
}

// inbox is one query's scheduler: its process, the port its operators report
// to, and the reports filed there by kind and operator id, so phases can await
// specific completions while unrelated reports arrive interleaved. Failover
// retries re-dispatch under attempt-tagged ids (".r1", ".r2", ...), so a
// straggling report from an aborted attempt can never satisfy a later
// attempt's wait.
type inbox struct {
	p       *sim.Proc
	port    *nose.Port
	ft      *queryFT // non-nil when mid-query failover is armed
	dones   map[string][]doneMsg
	builts  map[string][]builtMsg
	probeds map[string][]probedMsg
	aggs    map[string][]aggPartial
	acked   map[string]map[int]bool // abort acks: op -> sites acked
	// groups are the current attempt's operator groups that own a port,
	// in set-up order: what an abort must tear down.
	groups []*opGroup
}

func newInbox(p *sim.Proc, port *nose.Port) *inbox {
	ib := &inbox{p: p, port: port, acked: map[string]map[int]bool{}}
	ib.clearReports()
	return ib
}

// clearReports frees every filed completion report.
func (ib *inbox) clearReports() {
	ib.dones = map[string][]doneMsg{}
	ib.builts = map[string][]builtMsg{}
	ib.probeds = map[string][]probedMsg{}
	ib.aggs = map[string][]aggPartial{}
}

// errSiteFailed reports mid-query loss of operator sites; the query's
// lifecycle catches it, aborts the attempt, and replans (or, for an update,
// gives up).
type errSiteFailed struct{ sites []int }

func (e errSiteFailed) Error() string {
	return fmt.Sprintf("disk site(s) %v failed mid-query", e.sites)
}

// opFailed is an operator's report that a disk access raised a drive
// failure. Unlike a node crash (detected by scheduler timeout), a drive
// failure leaves the processor able to report, so detection is immediate.
type opFailed struct {
	op   string
	node int
}

// abortedMsg acknowledges a ctlAbort: the operator has dropped its buffered
// work and closed its port.
type abortedMsg struct {
	op   string
	site int
}

// pump receives and files one control message. With failover armed, the
// receive times out after the detection interval: a timeout with a failure
// newer than the attempt's snapshot (or an explicit opFailed report from an
// operator that lost its drive) returns errSiteFailed; a timeout with
// nothing newly failed is a quiet phase of a healthy run, and the wait
// simply continues.
func (ib *inbox) pump() error {
	var msg nose.Message
	if ib.ft != nil {
		for {
			var ok bool
			msg, ok = ib.port.RecvTimeout(ib.p, ib.ft.detect)
			if ok {
				break
			}
			if failed := ib.ft.newlyFailed(); len(failed) > 0 {
				return errSiteFailed{sites: failed}
			}
		}
	} else {
		msg = ib.port.Recv(ib.p)
	}
	switch pl := msg.Payload.(type) {
	case doneMsg:
		ib.dones[pl.op] = append(ib.dones[pl.op], pl)
	case builtMsg:
		ib.builts[pl.op] = append(ib.builts[pl.op], pl)
	case probedMsg:
		ib.probeds[pl.op] = append(ib.probeds[pl.op], pl)
	case aggPartial:
		ib.aggs[pl.op] = append(ib.aggs[pl.op], pl)
	case opFailed:
		if ib.ft == nil {
			panic(fmt.Sprintf("core: operator %s on node %d lost its drive (failover not enabled)", pl.op, pl.node))
		}
		// Actionable only while a failure is newer than the attempt's
		// snapshot; afterwards it is a straggling report from an attempt
		// already aborted for that same failure.
		if failed := ib.ft.newlyFailed(); len(failed) > 0 {
			return errSiteFailed{sites: failed}
		}
	case abortedMsg:
		acks := ib.acked[pl.op]
		if acks == nil {
			acks = map[int]bool{}
			ib.acked[pl.op] = acks
		}
		acks[pl.site] = true
	default:
		panic(fmt.Sprintf("scheduler: unexpected message %T", msg.Payload))
	}
	return nil
}

// collect blocks until n completion reports for op have been filed in box —
// one of the inbox's per-kind maps — and takes them. It is the scheduler's
// only wait.
func collect[T any](ib *inbox, box map[string][]T, op string, n int) ([]T, error) {
	for len(box[op]) < n {
		if err := ib.pump(); err != nil {
			return nil, err
		}
	}
	out := box[op]
	delete(box, op)
	return out, nil
}

// waitAborts blocks until every port of g has either acknowledged the abort
// (an abortedMsg for g.op from its site index) or closed without
// acknowledging (its node crashed, its operator died of a drive failure, or
// it finished first — all close the port). Failures reported meanwhile are
// absorbed: a retry replans from fresh machine state anyway.
func (ib *inbox) waitAborts(g *opGroup) {
	for {
		settled := true
		for i, pt := range g.ports {
			if !pt.Closed() && !ib.acked[g.op][i] {
				settled = false
				break
			}
		}
		if settled {
			delete(ib.acked, g.op)
			return
		}
		_ = ib.pump()
	}
}

// queryFT is one query's failover state: the detection timeout, the attempt
// counter, and a snapshot of disk-site health taken when the attempt was
// planned, so the scheduler can tell a fresh failure from one it already
// planned around.
type queryFT struct {
	m       *Machine
	detect  sim.Dur
	attempt int
	snap    []siteSnap
}

// siteSnap is one disk site's health at attempt planning time. watched means
// the site was up and the attempt depends on it. epoch is the site's crash
// count: a site that crashed and rejoined between two detection sweeps still
// shows a changed epoch, so operators it killed are not waited on forever.
type siteSnap struct {
	watched bool
	epoch   int
}

// newQueryFT returns failover state for one query, or nil when failover is
// not armed on the machine.
func (m *Machine) newQueryFT() *queryFT {
	if m.ftDetect <= 0 {
		return nil
	}
	return &queryFT{m: m, detect: m.ftDetect}
}

// resnap records disk-site health at the start of an attempt, watching every
// site that is up.
func (ft *queryFT) resnap() {
	ft.snap = ft.snap[:0]
	for _, nd := range ft.m.Disk {
		ft.snap = append(ft.snap, siteSnap{watched: ft.m.driveUp(nd), epoch: ft.m.crashes[nd.ID]})
	}
}

// newlyFailed lists watched disk sites lost since the attempt's snapshot:
// sites whose drive went down, and sites that crashed at all since planning —
// even if they already rejoined — because a crash killed any operator
// running there.
func (ft *queryFT) newlyFailed() []int {
	var out []int
	for i, nd := range ft.m.Disk {
		if ft.snap[i].watched && (!ft.m.driveUp(nd) || ft.m.crashes[nd.ID] != ft.snap[i].epoch) {
			out = append(out, i)
		}
	}
	return out
}

// watchOnly narrows the attempt's failure detection to the disk sites of
// nodes. An update depends on no other site, and must not report failure for
// a write that completed while an unrelated site went down.
func (ib *inbox) watchOnly(nodes []*nose.Node) {
	if ib.ft == nil {
		return
	}
	for i, nd := range ib.ft.m.Disk {
		ib.ft.snap[i].watched = ib.ft.snap[i].watched && slices.Contains(nodes, nd)
	}
}

// tag returns the attempt suffix for operator ids: "" for the first attempt
// (so healthy runs are byte-identical to a machine without failover), ".rN"
// for retries.
func (ib *inbox) tag() string {
	if ib.ft == nil || ib.ft.attempt == 0 {
		return ""
	}
	return fmt.Sprintf(".r%d", ib.ft.attempt)
}

// beginAttempt snapshots machine health and emits the retry marker for
// re-dispatches. When attempts exceed the disk-site count — more distinct
// failures than sites means the cluster cannot serve this query — it returns
// *ErrUnavailable, bounding the retry loop with a typed per-query error.
func (ib *inbox) beginAttempt(m *Machine, res *Result) error {
	res.Attempts++
	ib.groups = ib.groups[:0]
	if ib.ft == nil {
		return nil
	}
	if ib.ft.attempt > len(m.Disk) {
		return &ErrUnavailable{Attempts: ib.ft.attempt}
	}
	ib.ft.resnap()
	if ib.ft.attempt > 0 {
		ib.p.Emit(trace.Event{
			At: int64(ib.p.Now()), Kind: trace.KindFailover, Class: "retry",
			Query: res.Query, N: ib.ft.attempt,
		})
	}
	return nil
}

// retryBackoff delays a re-dispatch with exponential backoff plus
// deterministic jitter: attempt k sleeps base<<(k-1) (capped) plus a jitter
// drawn from a splitmix64 stream seeded by the query id and attempt number,
// so retries from queries that aborted at the same instant fan out instead
// of stampeding the scheduler, and identical runs remain byte-identical.
const (
	retryBackoffBase = 10 * sim.Millisecond
	retryBackoffCap  = 500 * sim.Millisecond
)

func (m *Machine) retryBackoff(ib *inbox, res *Result) {
	k := ib.ft.attempt // already incremented by abortAttempt
	d := retryBackoffBase
	for i := 1; i < k && d < retryBackoffCap; i++ {
		d <<= 1
	}
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	// FNV-1a over the query id, mixed with the attempt number.
	h := uint64(14695981039346656037)
	for i := 0; i < len(res.Query); i++ {
		h = (h ^ uint64(res.Query[i])) * 1099511628211
	}
	state := h ^ uint64(k)
	jitter := sim.Dur(splitmix64(&state) % uint64(d))
	ib.p.Sleep(d + jitter)
}

// splitmix64 is a tiny seedable generator, ours so that a run's determinism
// does not depend on math/rand's version-to-version stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// launchQuery spawns the host and scheduler processes around `body` without
// running the simulation, so several queries can execute concurrently (each
// query gets its own scheduler, as in Gamma, where the dispatcher activates
// one idle scheduler process per query, §2).
func (m *Machine) launchQuery(res *Result, body func(ib *inbox)) {
	start := m.Sim.Now()
	m.nextQID++
	res.Query = fmt.Sprintf("q%d", m.nextQID)
	m.Sim.Emit(trace.Event{At: int64(start), Kind: trace.KindQueryStart, Query: res.Query})
	schedPort := m.Sched.NewPort("sched")
	hostPort := m.Host.NewPort("host")
	m.Sim.Spawn("scheduler", func(p *sim.Proc) {
		schedPort.Recv(p) // the compiled query arrives from the host
		ib := newInbox(p, schedPort)
		ib.ft = m.newQueryFT()
		body(ib)
		nose.SendCtl(p, m.Sched, hostPort, "done")
		schedPort.Close()
	})
	m.Sim.Spawn("host", func(p *sim.Proc) {
		m.Host.CPU.Use(p, m.Prm.Engine.HostStartup)
		nose.SendCtl(p, m.Host, schedPort, "query")
		hostPort.Recv(p)
		hostPort.Close()
		res.Elapsed = p.Now() - start
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindQueryDone, Query: res.Query})
	})
}

// runQuery launches one query and runs the simulation to completion.
func (m *Machine) runQuery(res *Result, body func(ib *inbox)) {
	m.ResetPools()
	before := m.Counters()
	m.launchQuery(res, body)
	m.Sim.Run()
	res.Counters = m.Counters().Sub(before)
}

// lifecycle is the scheduler program of every query class: attempts of try,
// each planned afresh against the directory. try returns nil when the query
// is done, a terminal error when its plan cannot be satisfied (nothing has
// been committed yet), or errSiteFailed when a site was lost mid-attempt. A
// lost site aborts the attempt; a read-only query then backs off and replans
// against backup fragments, while an update (retry false) ends there with a
// typed error, so it is never applied twice.
func (m *Machine) lifecycle(res *Result, retry bool, try func(ib *inbox) error) func(ib *inbox) {
	return func(ib *inbox) {
		for {
			if err := ib.beginAttempt(m, res); err != nil {
				res.Err = err
				return
			}
			err := try(ib)
			if _, lost := err.(errSiteFailed); !lost {
				res.Err = err
				return
			}
			m.abortAttempt(ib, res)
			if !retry {
				res.Err = &ErrUnavailable{Attempts: res.Attempts}
				return
			}
			m.retryBackoff(ib, res)
		}
	}
}

// opGroup is one operator group of an attempt that consumes a port per site:
// its (attempt-tagged) id and the ports — what the scheduler signals, and
// what an abort must reach and hear acknowledged.
type opGroup struct {
	op    string
	ports []*nose.Port
}

// track registers g with the current attempt, so an abort tears it down.
func (ib *inbox) track(g *opGroup) *opGroup {
	ib.groups = append(ib.groups, g)
	return g
}

// signal sends c to every site of the group.
func (g *opGroup) signal(m *Machine, p *sim.Proc, c opCtl) {
	for _, pt := range g.ports {
		nose.SendCtl(p, m.Sched, pt, c)
	}
}

// setupStores creates the result relation (unless toHost) and initiates one
// store operator per surviving disk node, or a host collector. It returns
// *ErrUnavailable when no disk node survives to hold the result.
func (m *Machine) setupStores(ib *inbox, res *Result, resultName string, toHost bool, width int) (*opGroup, error) {
	ss := &opGroup{op: "store" + ib.tag()}
	if toHost {
		colPort := m.Host.NewPort(ss.op)
		spawnCollector(m, ib.p, ss.op, m.Host, colPort, ib.port)
		ss.ports = []*nose.Port{colPort}
		return ib.track(ss), nil
	}
	resRel, err := m.newResultRelation(resultName, width)
	if err != nil {
		return nil, err
	}
	res.ResultName = resRel.Name
	for i, frag := range resRel.Frags {
		pt := frag.Node.NewPort(fmt.Sprintf("%s%d", ss.op, i))
		spawnStore(m, ib.p, ss.op, i, frag, pt, ib.port)
		ss.ports = append(ss.ports, pt)
	}
	return ib.track(ss), nil
}

// close sends the final EOS count to every store and awaits their reports,
// returning the total tuples stored.
func (ss *opGroup) close(m *Machine, ib *inbox, expectEOS int) (int, error) {
	ss.signal(m, ib.p, opCtl{kind: ctlClose, expectEOS: expectEOS})
	dones, err := collect(ib, ib.dones, ss.op, len(ss.ports))
	if err != nil {
		return 0, err
	}
	stored := 0
	for _, d := range dones {
		stored += d.produced
	}
	return stored, nil
}

// abortAttempt tears down a failed query attempt: surviving operators are
// told to abort, their acknowledgements (or port closures — a crashed
// operator cannot acknowledge) are awaited, and the partial result relation
// is dropped, the paper's §4 cheap recovery path for "retrieve into".
// Operators are set up consumer-first, so the groups are torn down in reverse
// set-up order: dataflow order. A retry then replans under a fresh tag.
func (m *Machine) abortAttempt(ib *inbox, res *Result) {
	p := ib.p
	p.Emit(trace.Event{
		At: int64(p.Now()), Kind: trace.KindFailover, Class: "abort",
		Query: res.Query, N: ib.ft.attempt,
	})
	for i := len(ib.groups) - 1; i >= 0; i-- {
		for _, pt := range ib.groups[i].ports {
			if !pt.Closed() {
				nose.SendCtl(p, m.Sched, pt, opCtl{kind: ctlAbort})
			}
		}
	}
	for i := len(ib.groups) - 1; i >= 0; i-- {
		ib.waitAborts(ib.groups[i])
	}
	// Straggling completion reports from the dead attempt are keyed under
	// its tag and can never match a later wait; free them.
	ib.clearReports()
	if res.ResultName != "" {
		m.Drop(res.ResultName)
		res.ResultName = ""
	}
	ib.ft.attempt++
}

// RunSelect executes a selection query (§5).
func (m *Machine) RunSelect(q SelectQuery) Result {
	var res Result
	m.runQuery(&res, m.selectBody(q, &res))
	return res
}

// selectBody builds the scheduler program for a selection query.
func (m *Machine) selectBody(q SelectQuery, res *Result) func(ib *inbox) {
	scan := m.resolveScan(q.Scan)
	width := scan.Rel.width(m)
	if len(q.Project) > 0 {
		width = 4 * len(q.Project)
	}
	return m.lifecycle(res, true, func(ib *inbox) error {
		// Plan the scan sites before committing resources: a directory with
		// no readable copy fails the query with nothing to tear down.
		frags, degraded, err := m.scanSites(scan)
		if err != nil {
			return err
		}
		res.Degraded = degraded
		ss, err := m.setupStores(ib, res, q.ResultName, q.ToHost, width)
		if err != nil {
			return err
		}
		selOp := "select" + ib.tag()
		for si, frag := range frags {
			spawnSelect(m, ib.p, selOp, si, frag, scan.Pred, scan.Path, func() selectOutput {
				return selectOutput{
					stream: streamStore, ports: ss.ports, route: RRRoute(len(ss.ports)),
					width: width, project: q.Project,
				}
			}, ib.port)
		}
		dones, err := collect(ib, ib.dones, selOp, len(frags))
		if err != nil {
			return err
		}
		produced := 0
		for _, d := range dones {
			produced += d.produced
		}
		stored, err := ss.close(m, ib, len(frags))
		if err != nil {
			return err
		}
		if q.ToHost {
			res.Tuples = produced
		} else {
			res.Tuples = stored
		}
		return nil
	})
}

// stage tracks one hash join's sites and overflow state at the scheduler.
type stage struct {
	opGroup
	nodes     []*nose.Node
	buildAttr rel.Attr
	probeAttr rel.Attr
	// pending[level][site] = spool files awaiting an overflow round.
	pending  map[int]map[int]spoolInfo
	phases   int
	perSite  []int
	produced int
}

func (m *Machine) newStage(ib *inbox, opID string, nodes []*nose.Node, buildAttr, probeAttr rel.Attr) *stage {
	st := &stage{
		opGroup:   opGroup{op: opID},
		nodes:     nodes,
		buildAttr: buildAttr,
		probeAttr: probeAttr,
		pending:   map[int]map[int]spoolInfo{},
		perSite:   make([]int, len(nodes)),
	}
	for i, nd := range nodes {
		st.ports = append(st.ports, nd.NewPort(fmt.Sprintf("%s@%d", opID, i)))
	}
	ib.track(&st.opGroup)
	return st
}

// absorb records a probing phase's reports: result counts, overflow
// telemetry, and newly created spool partitions.
func (st *stage) absorb(reports []probedMsg) {
	for _, r := range reports {
		st.produced += r.produced
		st.perSite[r.site] = r.overflowEvents
		for _, si := range r.newSpools {
			lvl := st.pending[si.level]
			if lvl == nil {
				lvl = map[int]spoolInfo{}
				st.pending[si.level] = lvl
			}
			lvl[r.site] = si
		}
	}
	st.phases++
}

// runRounds drains the stage's overflow partitions: for each pending level,
// every site's build spool is redistributed with a fresh hash function and
// rebuilt, then the probe spools are redistributed and probed (§6.2.2).
func (m *Machine) runRounds(ib *inbox, st *stage) error {
	p := ib.p
	nJ := len(st.nodes)
	for len(st.pending) > 0 {
		levels := make([]int, 0, len(st.pending))
		for l := range st.pending {
			levels = append(levels, l)
		}
		sort.Ints(levels)
		l := levels[0]
		infos := st.pending[l]
		delete(st.pending, l)

		// Round build: redistribute build spools under a new seed.
		st.signal(m, p, opCtl{kind: ctlRoundBuild, level: l})
		for si, nd := range st.nodes {
			info := infos[si]
			// Spool files are rescanned by select-like operators at
			// the disk site holding them (diskless processors spooled
			// remotely), so Remote rounds pipeline across both CPU
			// sets while Local rounds stack scan and join work on the
			// same processors — the §6.2.2 crossover. A site that
			// spooled nothing at l has no owner and scans nothing.
			spawnSpoolScan(m, p, st.op+".ovfbuild", si, info.build, cmp.Or(info.owner, nd), func() selectOutput {
				return selectOutput{stream: roundStream(l, false), ports: st.ports, route: HashRoute(st.buildAttr, roundSeed(l), nJ)}
			}, ib.port)
		}
		if _, err := collect(ib, ib.dones, st.op+".ovfbuild", nJ); err != nil {
			return err
		}
		if _, err := collect(ib, ib.builts, st.op, nJ); err != nil {
			return err
		}

		// Round probe: redistribute probe spools likewise.
		st.signal(m, p, opCtl{kind: ctlRoundProbe, level: l})
		for si, nd := range st.nodes {
			info := infos[si]
			spawnSpoolScan(m, p, st.op+".ovfprobe", si, info.probe, cmp.Or(info.owner, nd), func() selectOutput {
				return selectOutput{stream: roundStream(l, true), ports: st.ports, route: HashRoute(st.probeAttr, roundSeed(l), nJ)}
			}, ib.port)
		}
		if _, err := collect(ib, ib.dones, st.op+".ovfprobe", nJ); err != nil {
			return err
		}
		probeds, err := collect(ib, ib.probeds, st.op, nJ)
		if err != nil {
			return err
		}
		st.absorb(probeds)
	}
	return nil
}

// RunJoin executes a one- or two-stage hash join query (§6).
func (m *Machine) RunJoin(q JoinQuery) Result {
	var res Result
	m.runQuery(&res, m.joinBody(q, &res))
	return res
}

// joinBody builds the scheduler program for a join query.
func (m *Machine) joinBody(q JoinQuery, res *Result) func(ib *inbox) {
	build := m.resolveScan(q.Build)
	probe := m.resolveScan(q.Probe)
	var build2 ScanSpec
	if q.Build2 != nil {
		build2 = m.resolveScan(*q.Build2)
	}
	memPer := q.MemPerJoinBytes
	if memPer <= 0 {
		memPer = m.Prm.Memory.JoinTableBytes
	}
	return m.lifecycle(res, true, func(ib *inbox) error {
		return m.tryJoin(ib, q, res, build, probe, build2, memPer)
	})
}

// tryJoin runs one attempt of a join query.
func (m *Machine) tryJoin(ib *inbox, q JoinQuery, res *Result, build, probe, build2 ScanSpec, memPer int) error {
	p, sched, tag := ib.p, ib.port, ib.tag()
	// Plan everything that consults only directory state — join sites and
	// every scan's fragment list — before committing resources, so a plan
	// that cannot be satisfied fails terminally with nothing to tear down.
	joinNodes, err := m.JoinNodes(q.Mode)
	if err != nil {
		return err
	}
	nJ := len(joinNodes)
	var b2frags []*Fragment
	degraded := false
	if q.Build2 != nil {
		if b2frags, degraded, err = m.scanSites(build2); err != nil {
			return err
		}
	}
	bfrags, bakB, err := m.scanSites(build)
	if err != nil {
		return err
	}
	pfrags, bakP, err := m.scanSites(probe)
	if err != nil {
		return err
	}
	res.Degraded = degraded || bakB || bakP
	// Hybrid hash join plans its partition count from the optimizer's
	// estimate of the per-site build size.
	hybridParts := 0
	if q.Algorithm == HybridHash {
		estBytes := int(float64(q.Build.Rel.N) * q.Build.Pred.Selectivity(q.Build.Rel.N) * float64(m.Prm.TupleBytes) / float64(nJ))
		if estBytes > memPer {
			hybridParts = (estBytes-1)/memPer + 1 // spilled partitions
		}
	}

	ss, err := m.setupStores(ib, res, q.ResultName, false, 0)
	if err != nil {
		return err
	}
	// Optional second stage, built first so stage one can stream into it.
	var st2 *stage
	if q.Build2 != nil {
		st2 = m.newStage(ib, "join2"+tag, joinNodes, q.Build2Attr, q.Probe2Attr)
		for si, nd := range joinNodes {
			spawnJoin(joinSpec{
				m: m, from: p, opID: st2.op, site: si, node: nd, port: st2.ports[si], sched: sched,
				buildAttr: q.Build2Attr, probeAttr: q.Probe2Attr,
				nSites: nJ, nBuild: len(b2frags), nProbe: -1, memBytes: memPer,
				outStream: streamStore, outPorts: ss.ports,
				mkOutRoute: func() RouteFn { return RRRoute(len(ss.ports)) },
			})
		}
		for si, frag := range b2frags {
			spawnSelect(m, p, "sel-build2"+tag, si, frag, build2.Pred, build2.Path, func() selectOutput {
				return selectOutput{stream: streamBuild, ports: st2.ports, route: HashRoute(q.Build2Attr, LoadSeed, nJ)}
			}, sched)
		}
		if _, err := collect(ib, ib.dones, "sel-build2"+tag, len(b2frags)); err != nil {
			return err
		}
		if _, err := collect(ib, ib.builts, st2.op, nJ); err != nil {
			return err
		}
	}

	// Stage one join operators.
	st1 := m.newStage(ib, "join1"+tag, joinNodes, q.BuildAttr, q.ProbeAttr)
	outPorts := ss.ports
	outStream := streamStore
	mkOutRoute := func() RouteFn { return RRRoute(len(ss.ports)) }
	if st2 != nil {
		outPorts = st2.ports
		outStream = streamProbe
		mkOutRoute = func() RouteFn { return HashRoute(q.Probe2Attr, LoadSeed, nJ) }
	}
	for si, nd := range joinNodes {
		spawnJoin(joinSpec{
			m: m, from: p, opID: st1.op, site: si, node: nd, port: st1.ports[si], sched: sched,
			buildAttr: q.BuildAttr, probeAttr: q.ProbeAttr,
			nSites: nJ, nBuild: len(bfrags), nProbe: len(pfrags), memBytes: memPer,
			outStream: outStream, outPorts: outPorts, mkOutRoute: mkOutRoute,
			makeFilter: q.UseBitFilter, filterBits: 1 << 16,
			algo: q.Algorithm, hybridParts: hybridParts,
		})
	}

	// Build selections.
	for si, frag := range bfrags {
		spawnSelect(m, p, "sel-build"+tag, si, frag, build.Pred, build.Path, func() selectOutput {
			return selectOutput{stream: streamBuild, ports: st1.ports, route: HashRoute(q.BuildAttr, LoadSeed, nJ)}
		}, sched)
	}
	if _, err := collect(ib, ib.dones, "sel-build"+tag, len(bfrags)); err != nil {
		return err
	}
	builts, err := collect(ib, ib.builts, st1.op, nJ)
	if err != nil {
		return err
	}

	// Probe selections, with Babb filters if every site produced one.
	filters := make([]*BitFilter, nJ)
	haveFilters := q.UseBitFilter
	for _, b := range builts {
		if b.filter == nil {
			haveFilters = false
		} else {
			filters[b.site] = b.filter
		}
	}
	for si, frag := range pfrags {
		spawnSelect(m, p, "sel-probe"+tag, si, frag, probe.Pred, probe.Path, func() selectOutput {
			out := selectOutput{stream: streamProbe, ports: st1.ports, route: HashRoute(q.ProbeAttr, LoadSeed, nJ)}
			if haveFilters {
				out.filters = filters
				out.filterAttr = q.ProbeAttr
			}
			return out
		}, sched)
	}
	if _, err := collect(ib, ib.dones, "sel-probe"+tag, len(pfrags)); err != nil {
		return err
	}
	probeds, err := collect(ib, ib.probeds, st1.op, nJ)
	if err != nil {
		return err
	}
	st1.absorb(probeds)

	// Stage-one overflow rounds, then release its operators.
	if err := m.runRounds(ib, st1); err != nil {
		return err
	}
	st1.signal(m, p, opCtl{kind: ctlFinish})

	finalStage := st1
	if st2 != nil {
		st2.signal(m, p, opCtl{kind: ctlClose, expectEOS: nJ * st1.phases})
		probeds2, err := collect(ib, ib.probeds, st2.op, nJ)
		if err != nil {
			return err
		}
		st2.absorb(probeds2)
		if err := m.runRounds(ib, st2); err != nil {
			return err
		}
		st2.signal(m, p, opCtl{kind: ctlFinish})
		finalStage = st2
	}

	stored, err := ss.close(m, ib, nJ*finalStage.phases)
	if err != nil {
		return err
	}
	res.Tuples = stored
	res.Overflows = 0
	for i, v := range st1.perSite {
		if st2 != nil {
			v += st2.perSite[i]
		}
		res.Overflows = max(res.Overflows, v)
	}
	return nil
}

// ConcurrentQuery is one of the queries RunConcurrent starts together:
// exactly one of the fields is set.
type ConcurrentQuery struct {
	Select *SelectQuery
	Join   *JoinQuery
}

// concurrentBody returns the scheduler program of one of RunConcurrent's
// queries, which fills res.
func (m *Machine) concurrentBody(q ConcurrentQuery, res *Result) func(ib *inbox) {
	switch {
	case q.Select != nil:
		return m.selectBody(*q.Select, res)
	case q.Join != nil:
		return m.joinBody(*q.Join, res)
	}
	panic("core: empty ConcurrentQuery")
}

// RunConcurrent starts every query at the same simulated instant — the
// multiuser scenario §6.2.1 defers to "future multiuser benchmarks" — and
// returns each query's response time. Each query gets its own scheduler
// process, as Gamma's dispatcher would assign. The Results' Counters stay
// zero, so no query gets a verdict of its own; classify the run's window
// instead: before := m.Counters(); m.RunConcurrent(qs);
// m.Counters().Sub(before).Verdict().
func (m *Machine) RunConcurrent(qs []ConcurrentQuery) []Result {
	m.ResetPools()
	results := make([]Result, len(qs))
	for i, q := range qs {
		m.launchQuery(&results[i], m.concurrentBody(q, &results[i]))
	}
	m.Sim.Run()
	return results
}
