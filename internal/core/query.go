package core

import (
	"fmt"
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
	// Overflow telemetry (joins): resolutions observed at the most-
	// overflowed site, and the per-site counts.
	Overflows       int
	OverflowPerSite []int
	// Network activity during the query.
	DataPackets int64
	LocalMsgs   int64
	CtlMsgs     int64
	// Buffer-pool activity during the query (machine-wide deltas; exact
	// per-query for serially executed queries).
	PoolHits   int64
	PoolMisses int64
	// SharedPagesSaved is the number of physical page reads the scan-sharing
	// layer avoided during the query (0 with sharing off).
	SharedPagesSaved int64
	// Query is the trace span id ("q1", "q2", ...) assigned at launch.
	Query string
	// Diag is the bottleneck classification of the query's span, non-nil
	// when the machine has tracing enabled (Machine.EnableTrace).
	Diag *trace.Verdict

	// Err is non-nil when the query could not complete: some fragment had no
	// readable copy, or failover retries were exhausted (*ErrUnavailable).
	// Only this query fails; the machine keeps serving others.
	Err error
	// Degraded reports that the successful attempt read at least one backup
	// copy in place of a lost primary — the result is correct but was
	// produced in degraded mode, and is never silently presented as healthy.
	Degraded bool
	// Attempts is the number of attempts executed (1 for a clean run).
	Attempts int
}

// initiate starts an operator process on a node the way Gamma's scheduler
// does (§6.2.3), on every machine: MsgsPerOperatorInit control messages of
// CtlMsg each, serialized on the scheduler's CPU, and then the start itself
// crosses the ring (Machine.start), so the operator begins one Net.MinLatency
// after the scheduler has paid for it. The cost is attributed in the trace as
// a control-message event so Diagnose's "ctl" class can surface scheduler-
// bound queries (§6.2.3's short-query regime).
func (m *Machine) initiate(p *sim.Proc, node *nose.Node, name string, fn func(p *sim.Proc)) {
	cost := sim.Dur(m.Prm.Engine.MsgsPerOperatorInit) * m.Prm.Net.CtlMsg
	m.Sched.CPU.Use(p, cost)
	if m.Sim.Tracing() {
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindCtlMsg, From: m.Sched.ID, To: node.ID, Dur: int64(cost)})
	}
	m.start(p, node, name, fn)
}

// JoinNodes returns the processors that execute join operators in a mode,
// excluding crashed nodes (a node with only a failed drive still joins; its
// spooling was re-pointed at a surviving drive). It panics when no
// processor survives; the typed-error query path uses joinNodesErr.
func (m *Machine) JoinNodes(mode JoinMode) []*nose.Node {
	out, err := m.joinNodesErr(mode)
	if err != nil {
		panic("core: no surviving processor to run join operators")
	}
	return out
}

// joinNodesErr is JoinNodes for the typed-error query path: an empty
// survivor set returns *ErrUnavailable instead of panicking.
func (m *Machine) joinNodesErr(mode JoinMode) ([]*nose.Node, error) {
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

// inbox buffers the scheduler's incoming control messages by kind so phases
// can await specific completions while unrelated reports arrive interleaved.
// Completion reports are keyed by operator id; failover retries re-dispatch
// under attempt-tagged ids (".r1", ".r2", ...), so a straggling report from
// an aborted attempt can never satisfy a later attempt's wait.
type inbox struct {
	p        *sim.Proc
	port     *nose.Port
	ft       *queryFT // non-nil when mid-query failover is armed
	dones    map[string][]doneMsg
	builts   map[string][]builtMsg
	probeds  map[string][]probedMsg
	stores   map[string][]storeDone
	acked    map[string]map[int]bool // abort acks: op -> sites acked
	aggParts []aggPartial
	aggDones []aggDone
	updDones []updateDone
}

func newInbox(p *sim.Proc, port *nose.Port) *inbox {
	return &inbox{
		p:       p,
		port:    port,
		dones:   map[string][]doneMsg{},
		builts:  map[string][]builtMsg{},
		probeds: map[string][]probedMsg{},
		stores:  map[string][]storeDone{},
		acked:   map[string]map[int]bool{},
	}
}

// errSiteFailed reports mid-query loss of operator sites; the scheduler's
// attempt loop catches it, aborts, and replans against backup fragments.
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

// abortedMsg acknowledges a ctlAbort/storeAbort: the operator has dropped
// its buffered work and closed its port.
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
	case storeDone:
		ib.stores[pl.op] = append(ib.stores[pl.op], pl)
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
	case aggPartial:
		ib.aggParts = append(ib.aggParts, pl)
	case aggDone:
		ib.aggDones = append(ib.aggDones, pl)
	case updateDone:
		ib.updDones = append(ib.updDones, pl)
	default:
		panic(fmt.Sprintf("scheduler: unexpected message %T", msg.Payload))
	}
	return nil
}

// mustPump is pump for query types that do not participate in failover
// (aggregates, updates, sorts): a site failure there is fatal.
func (ib *inbox) mustPump() { noFailover(ib.pump()) }

func noFailover(err error) {
	if err != nil {
		panic("core: " + err.Error() + " (query type does not support failover)")
	}
}

func (ib *inbox) waitAgg() aggDone {
	for len(ib.aggDones) == 0 {
		ib.mustPump()
	}
	out := ib.aggDones[0]
	ib.aggDones = ib.aggDones[1:]
	return out
}

func (ib *inbox) waitAggPartial() aggPartial {
	for len(ib.aggParts) == 0 {
		ib.mustPump()
	}
	out := ib.aggParts[0]
	ib.aggParts = ib.aggParts[1:]
	return out
}

func (ib *inbox) waitUpdates(n int) []updateDone {
	for len(ib.updDones) < n {
		ib.mustPump()
	}
	out := ib.updDones
	ib.updDones = nil
	return out
}

// collect blocks until n completion reports for op have been filed in box —
// one of the inbox's per-kind maps — and takes them.
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

// mustCollect is collect for non-failover query types.
func mustCollect[T any](ib *inbox, box map[string][]T, op string, n int) []T {
	out, err := collect(ib, box, op, n)
	noFailover(err)
	return out
}

// waitAborts blocks until every port in the list has either acknowledged
// the abort (an abortedMsg for op from its site index) or closed without
// acknowledging (its node crashed, or its operator died of a drive failure
// — both close the port). Failures reported meanwhile are absorbed: the
// retry replans from fresh machine state anyway.
func (ib *inbox) waitAborts(op string, ports []*nose.Port) {
	for {
		settled := true
		for i, pt := range ports {
			if !pt.Closed() && !ib.acked[op][i] {
				settled = false
				break
			}
		}
		if settled {
			delete(ib.acked, op)
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

// siteSnap is one disk site's health at attempt planning time. epoch is the
// site's crash count: a site that crashed and rejoined between two detection
// sweeps still shows a changed epoch, so operators it killed are not waited
// on forever.
type siteSnap struct {
	up    bool
	epoch int
}

// newQueryFT returns failover state for one query, or nil when failover is
// not armed on the machine.
func (m *Machine) newQueryFT() *queryFT {
	if m.ftDetect <= 0 {
		return nil
	}
	return &queryFT{m: m, detect: m.ftDetect}
}

// resnap records disk-site health at the start of an attempt.
func (ft *queryFT) resnap() {
	ft.snap = ft.snap[:0]
	for _, nd := range ft.m.Disk {
		ft.snap = append(ft.snap, siteSnap{up: ft.m.driveUp(nd), epoch: ft.m.crashes[nd.ID]})
	}
}

// newlyFailed lists disk sites lost since the attempt's snapshot: sites whose
// drive went down, and sites that crashed at all since planning — even if
// they already rejoined — because a crash killed any operator running there.
func (ft *queryFT) newlyFailed() []int {
	var out []int
	for i, nd := range ft.m.Disk {
		if ft.snap[i].up && (!ft.m.driveUp(nd) || ft.m.crashes[nd.ID] != ft.snap[i].epoch) {
			out = append(out, i)
		}
	}
	return out
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

func (m *Machine) retryBackoff(p *sim.Proc, ib *inbox, res *Result) {
	if ib.ft == nil {
		return
	}
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
	p.Sleep(d + jitter)
}

// launchQuery spawns the host and scheduler processes around `body` without
// running the simulation, so several queries can execute concurrently (each
// query gets its own scheduler, as in Gamma, where the dispatcher activates
// one idle scheduler process per query, §2). onDone, if non-nil, runs in the
// host process after the query's result is final; the closed-loop workload
// driver uses it to wake the issuing terminal.
func (m *Machine) launchQuery(res *Result, body func(p *sim.Proc, ib *inbox, schedPort *nose.Port), onDone func()) {
	start := m.Sim.Now()
	m.nextQID++
	res.Query = fmt.Sprintf("q%d", m.nextQID)
	m.Sim.Emit(trace.Event{At: int64(start), Kind: trace.KindQueryStart, Query: res.Query})
	schedPort := m.Sched.NewPort("sched")
	hostPort := m.Host.NewPort("host")
	m.Sim.SpawnOn(m.Sched.Part, "scheduler", func(p *sim.Proc) {
		schedPort.Recv(p) // the compiled query arrives from the host
		ib := newInbox(p, schedPort)
		ib.ft = m.newQueryFT()
		body(p, ib, schedPort)
		nose.SendCtl(p, m.Sched, hostPort, "done")
		schedPort.Close()
	})
	m.Sim.SpawnOn(m.Host.Part, "host", func(p *sim.Proc) {
		m.Host.CPU.Use(p, m.Prm.Engine.HostStartup)
		nose.SendCtl(p, m.Host, schedPort, "query")
		hostPort.Recv(p)
		hostPort.Close()
		res.Elapsed = p.Now() - start
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindQueryDone, Query: res.Query})
		if onDone != nil {
			onDone()
		}
	})
}

// diagnose fills res.Diag from the collected trace, if tracing is enabled.
func (m *Machine) diagnose(res *Result) {
	if m.Trace == nil {
		return
	}
	if v, ok := m.Trace.DiagnoseQuery(res.Query); ok {
		res.Diag = &v
	}
}

// runQuery launches one query and runs the simulation to completion.
func (m *Machine) runQuery(res *Result, body func(p *sim.Proc, ib *inbox, schedPort *nose.Port)) {
	m.ResetPools()
	net0 := m.Net.Stats()
	hits0, misses0 := m.PoolStats()
	scanned0, delivered0 := m.SharedScanStats()
	m.launchQuery(res, body, nil)
	m.Sim.Run()
	net1 := m.Net.Stats()
	res.DataPackets = net1.DataPackets - net0.DataPackets
	res.LocalMsgs = net1.LocalMsgs - net0.LocalMsgs
	res.CtlMsgs = net1.CtlMsgs - net0.CtlMsgs
	hits1, misses1 := m.PoolStats()
	res.PoolHits = hits1 - hits0
	res.PoolMisses = misses1 - misses0
	scanned1, delivered1 := m.SharedScanStats()
	res.SharedPagesSaved = (delivered1 - delivered0) - (scanned1 - scanned0)
	m.diagnose(res)
}

// storeSet is one attempt's result-storage operators: the (attempt-tagged)
// operator id and the destination ports.
type storeSet struct {
	op    string
	ports []*nose.Port
}

// setupStores creates the result relation (unless toHost) and initiates one
// store operator per surviving disk node, or a host collector. It returns
// *ErrUnavailable when no disk node survives to hold the result.
func (m *Machine) setupStores(p *sim.Proc, ib *inbox, schedPort *nose.Port, res *Result, resultName string, toHost bool, width int) (*storeSet, error) {
	ss := &storeSet{op: "store" + ib.tag()}
	if toHost {
		colPort := m.Host.NewPort(ss.op)
		spawnCollector(m, p, ss.op, m.Host, colPort, schedPort, nil)
		ss.ports = []*nose.Port{colPort}
		return ss, nil
	}
	resRel, err := m.newResultRelation(resultName, width)
	if err != nil {
		return nil, err
	}
	res.ResultName = resRel.Name
	for i, frag := range resRel.Frags {
		pt := frag.Node.NewPort(fmt.Sprintf("%s%d", ss.op, i))
		spawnStore(m, p, ss.op, i, frag, pt, schedPort)
		ss.ports = append(ss.ports, pt)
	}
	return ss, nil
}

// close sends the final EOS count to every store and awaits their reports,
// returning the total tuples stored.
func (ss *storeSet) close(m *Machine, p *sim.Proc, ib *inbox, expectEOS int) (int, error) {
	for _, pt := range ss.ports {
		nose.SendCtl(p, m.Sched, pt, storeClose{expectEOS: expectEOS})
	}
	sds, err := collect(ib, ib.stores, ss.op, len(ss.ports))
	if err != nil {
		return 0, err
	}
	stored := 0
	for _, sd := range sds {
		stored += sd.stored
	}
	return stored, nil
}

// abortAttempt tears down a failed query attempt: surviving operators are
// told to abort, their acknowledgements (or port closures — a crashed
// operator cannot acknowledge) are awaited, and the partial result relation
// is dropped, the paper's §4 cheap recovery path for "retrieve into". The
// next attempt then replans against backup fragments under a fresh tag.
func (m *Machine) abortAttempt(p *sim.Proc, ib *inbox, res *Result, stages []*stage, ss *storeSet) {
	p.Emit(trace.Event{
		At: int64(p.Now()), Kind: trace.KindFailover, Class: "abort",
		Query: res.Query, N: ib.ft.attempt,
	})
	for _, st := range stages {
		if st == nil {
			continue
		}
		for _, pt := range st.ports {
			if !pt.Closed() {
				nose.SendCtl(p, m.Sched, pt, joinCtl{kind: ctlAbort})
			}
		}
	}
	for _, pt := range ss.ports {
		if !pt.Closed() {
			nose.SendCtl(p, m.Sched, pt, storeAbort{})
		}
	}
	for _, st := range stages {
		if st != nil {
			ib.waitAborts(st.opID, st.ports)
		}
	}
	ib.waitAborts(ss.op, ss.ports)
	// Straggling completion reports from the dead attempt are keyed under
	// its tag and can never match a later wait; free them.
	ib.dones = map[string][]doneMsg{}
	ib.builts = map[string][]builtMsg{}
	ib.probeds = map[string][]probedMsg{}
	ib.stores = map[string][]storeDone{}
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

// selectBody builds the scheduler program for a selection query: an attempt
// loop that re-dispatches against backup fragments after a mid-query site
// failure, backing off between attempts. A terminal error (no readable copy,
// retries exhausted) lands in res.Err and ends the loop.
func (m *Machine) selectBody(q SelectQuery, res *Result) func(p *sim.Proc, ib *inbox, schedPort *nose.Port) {
	scan := m.resolveScan(q.Scan)
	width := scan.Rel.width(m)
	if len(q.Project) > 0 {
		width = 4 * len(q.Project)
	}
	return func(p *sim.Proc, ib *inbox, schedPort *nose.Port) {
		for !m.trySelect(p, ib, schedPort, q, res, scan, width) {
			m.retryBackoff(p, ib, res)
		}
	}
}

// trySelect runs one attempt of a selection; false means the attempt hit a
// site failure, was aborted, and should be retried. Terminal failures
// (typed unavailability) set res.Err and return true — the query is done.
func (m *Machine) trySelect(p *sim.Proc, ib *inbox, schedPort *nose.Port, q SelectQuery, res *Result, scan ScanSpec, width int) bool {
	if err := ib.beginAttempt(m, res); err != nil {
		res.Err = err
		return true
	}
	// Plan the scan sites before committing resources: a directory with no
	// readable copy fails the attempt terminally with nothing to tear down.
	frags, degraded, err := m.scanSites(scan)
	if err != nil {
		res.Err = err
		return true
	}
	res.Degraded = degraded
	ss, err := m.setupStores(p, ib, schedPort, res, q.ResultName, q.ToHost, width)
	if err != nil {
		res.Err = err
		return true
	}
	selOp := "select" + ib.tag()
	for si, frag := range frags {
		spawnSelect(m, p, selOp, si, frag, scan.Pred, scan.Path, func() selectOutput {
			return selectOutput{
				stream: streamStore, ports: ss.ports, route: RRRoute(len(ss.ports)),
				width: width, project: q.Project,
			}
		}, schedPort)
	}
	err = func() error {
		dones, err := collect(ib, ib.dones, selOp, len(frags))
		if err != nil {
			return err
		}
		produced := 0
		for _, d := range dones {
			produced += d.produced
		}
		stored, err := ss.close(m, p, ib, len(frags))
		if err != nil {
			return err
		}
		if q.ToHost {
			res.Tuples = produced
		} else {
			res.Tuples = stored
		}
		return nil
	}()
	if err == nil {
		return true
	}
	m.abortAttempt(p, ib, res, nil, ss)
	return false
}

// stage tracks one hash join's sites and overflow state at the scheduler.
type stage struct {
	opID      string
	nodes     []*nose.Node
	ports     []*nose.Port
	buildAttr rel.Attr
	probeAttr rel.Attr
	// pending[level][site] = spool files awaiting an overflow round.
	pending  map[int]map[int]spoolInfo
	phases   int
	perSite  []int
	produced int
}

func (m *Machine) newStage(opID string, nodes []*nose.Node, buildAttr, probeAttr rel.Attr) *stage {
	st := &stage{
		opID:      opID,
		nodes:     nodes,
		buildAttr: buildAttr,
		probeAttr: probeAttr,
		pending:   map[int]map[int]spoolInfo{},
		perSite:   make([]int, len(nodes)),
	}
	for i, nd := range nodes {
		st.ports = append(st.ports, nd.NewPort(fmt.Sprintf("%s@%d", opID, i)))
	}
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
func (m *Machine) runRounds(p *sim.Proc, ib *inbox, schedPort *nose.Port, st *stage) error {
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
		for si := range st.nodes {
			nose.SendCtl(p, m.Sched, st.ports[si], joinCtl{kind: ctlRoundBuild, level: l})
		}
		for si, nd := range st.nodes {
			info := infos[si]
			// Spool files are rescanned by select-like operators at
			// the disk site holding them (diskless processors spooled
			// remotely), so Remote rounds pipeline across both CPU
			// sets while Local rounds stack scan and join work on the
			// same processors — the §6.2.2 crossover.
			reader := nd
			if info.owner != nil {
				reader = info.owner
			}
			spawnSpoolScan(m, p, st.opID+".ovfbuild", si, info.build, info.owner, reader, func() selectOutput {
				return selectOutput{stream: roundStream(l, false), ports: st.ports, route: HashRoute(st.buildAttr, roundSeed(l), nJ)}
			}, schedPort)
		}
		if _, err := collect(ib, ib.dones, st.opID+".ovfbuild", nJ); err != nil {
			return err
		}
		if _, err := collect(ib, ib.builts, st.opID, nJ); err != nil {
			return err
		}

		// Round probe: redistribute probe spools likewise.
		for si := range st.nodes {
			nose.SendCtl(p, m.Sched, st.ports[si], joinCtl{kind: ctlRoundProbe, level: l})
		}
		for si, nd := range st.nodes {
			info := infos[si]
			reader := nd
			if info.owner != nil {
				reader = info.owner
			}
			spawnSpoolScan(m, p, st.opID+".ovfprobe", si, info.probe, info.owner, reader, func() selectOutput {
				return selectOutput{stream: roundStream(l, true), ports: st.ports, route: HashRoute(st.probeAttr, roundSeed(l), nJ)}
			}, schedPort)
		}
		if _, err := collect(ib, ib.dones, st.opID+".ovfprobe", nJ); err != nil {
			return err
		}
		probeds, err := collect(ib, ib.probeds, st.opID, nJ)
		if err != nil {
			return err
		}
		st.absorb(probeds)
	}
	return nil
}

// finish releases a stage's join operators.
func (m *Machine) finishStage(p *sim.Proc, st *stage) {
	for _, pt := range st.ports {
		nose.SendCtl(p, m.Sched, pt, joinCtl{kind: ctlFinish})
	}
}

// RunJoin executes a one- or two-stage hash join query (§6).
func (m *Machine) RunJoin(q JoinQuery) Result {
	var res Result
	m.runQuery(&res, m.joinBody(q, &res))
	return res
}

// joinBody builds the scheduler program for a join query: an attempt loop
// that replans join sites and scan fragments after a mid-query site failure.
func (m *Machine) joinBody(q JoinQuery, res *Result) func(p *sim.Proc, ib *inbox, schedPort *nose.Port) {
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
	return func(p *sim.Proc, ib *inbox, schedPort *nose.Port) {
		for !m.tryJoin(p, ib, schedPort, q, res, build, probe, build2, memPer) {
			m.retryBackoff(p, ib, res)
		}
	}
}

// tryJoin runs one attempt of a join query; false means the attempt hit a
// site failure, was aborted, and should be retried against the survivors.
// Terminal failures (typed unavailability) set res.Err and return true.
func (m *Machine) tryJoin(p *sim.Proc, ib *inbox, schedPort *nose.Port, q JoinQuery, res *Result, build, probe, build2 ScanSpec, memPer int) bool {
	if err := ib.beginAttempt(m, res); err != nil {
		res.Err = err
		return true
	}
	tag := ib.tag()
	// Plan everything that consults only directory state — join sites and
	// every scan's fragment list — before committing resources, so a plan
	// that cannot be satisfied fails terminally with nothing to tear down.
	joinNodes, err := m.joinNodesErr(q.Mode)
	if err != nil {
		res.Err = err
		return true
	}
	nJ := len(joinNodes)
	var b2frags []*Fragment
	degraded := false
	if q.Build2 != nil {
		var bak bool
		b2frags, bak, err = m.scanSites(build2)
		if err != nil {
			res.Err = err
			return true
		}
		degraded = degraded || bak
	}
	bfrags, bakB, err := m.scanSites(build)
	if err != nil {
		res.Err = err
		return true
	}
	pfrags, bakP, err := m.scanSites(probe)
	if err != nil {
		res.Err = err
		return true
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

	ss, err := m.setupStores(p, ib, schedPort, res, q.ResultName, false, 0)
	if err != nil {
		res.Err = err
		return true
	}
	var st1, st2 *stage
	err = func() error {
		// Optional second stage, built first so stage one can stream
		// into it.
		if q.Build2 != nil {
			st2 = m.newStage("join2"+tag, joinNodes, q.Build2Attr, q.Probe2Attr)
			for si, nd := range joinNodes {
				spawnJoin(joinSpec{
					m: m, from: p, opID: st2.opID, site: si, node: nd, port: st2.ports[si], sched: schedPort,
					buildAttr: q.Build2Attr, probeAttr: q.Probe2Attr,
					nSites: nJ, nBuild: len(b2frags), nProbe: -1, memBytes: memPer,
					outStream: streamStore, outPorts: ss.ports,
					mkOutRoute: func() RouteFn { return RRRoute(len(ss.ports)) },
				})
			}
			for si, frag := range b2frags {
				spawnSelect(m, p, "sel-build2"+tag, si, frag, build2.Pred, build2.Path, func() selectOutput {
					return selectOutput{stream: streamBuild, ports: st2.ports, route: HashRoute(q.Build2Attr, LoadSeed, nJ)}
				}, schedPort)
			}
			if _, err := collect(ib, ib.dones, "sel-build2"+tag, len(b2frags)); err != nil {
				return err
			}
			if _, err := collect(ib, ib.builts, st2.opID, nJ); err != nil {
				return err
			}
		}

		// Stage one join operators.
		st1 = m.newStage("join1"+tag, joinNodes, q.BuildAttr, q.ProbeAttr)
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
				m: m, from: p, opID: st1.opID, site: si, node: nd, port: st1.ports[si], sched: schedPort,
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
			}, schedPort)
		}
		if _, err := collect(ib, ib.dones, "sel-build"+tag, len(bfrags)); err != nil {
			return err
		}
		builts, err := collect(ib, ib.builts, st1.opID, nJ)
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
			fr := frag
			spawnSelect(m, p, "sel-probe"+tag, si, fr, probe.Pred, probe.Path, func() selectOutput {
				out := selectOutput{stream: streamProbe, ports: st1.ports, route: HashRoute(q.ProbeAttr, LoadSeed, nJ)}
				if haveFilters {
					out.filters = filters
					out.filterAttr = q.ProbeAttr
				}
				return out
			}, schedPort)
		}
		if _, err := collect(ib, ib.dones, "sel-probe"+tag, len(pfrags)); err != nil {
			return err
		}
		probeds, err := collect(ib, ib.probeds, st1.opID, nJ)
		if err != nil {
			return err
		}
		st1.absorb(probeds)

		// Stage-one overflow rounds, then release its operators.
		if err := m.runRounds(p, ib, schedPort, st1); err != nil {
			return err
		}
		m.finishStage(p, st1)

		finalStage := st1
		if st2 != nil {
			for _, pt := range st2.ports {
				nose.SendCtl(p, m.Sched, pt, joinCtl{kind: ctlProbeClose, expectEOS: nJ * st1.phases})
			}
			probeds2, err := collect(ib, ib.probeds, st2.opID, nJ)
			if err != nil {
				return err
			}
			st2.absorb(probeds2)
			if err := m.runRounds(p, ib, schedPort, st2); err != nil {
				return err
			}
			m.finishStage(p, st2)
			finalStage = st2
		}

		stored, err := ss.close(m, p, ib, nJ*finalStage.phases)
		if err != nil {
			return err
		}
		res.Tuples = stored
		res.OverflowPerSite = append(st1.perSite[:0:0], st1.perSite...)
		if st2 != nil {
			for i, v := range st2.perSite {
				res.OverflowPerSite[i] += v
			}
		}
		res.Overflows = 0
		for _, v := range res.OverflowPerSite {
			if v > res.Overflows {
				res.Overflows = v
			}
		}
		return nil
	}()
	if err == nil {
		return true
	}
	m.abortAttempt(p, ib, res, []*stage{st1, st2}, ss)
	return false
}

// ConcurrentQuery is one member of a multiuser workload: exactly one of the
// fields is set.
type ConcurrentQuery struct {
	Select *SelectQuery
	Join   *JoinQuery
}

// RunConcurrent starts every query at the same simulated instant — the
// multiuser scenario §6.2.1 defers to "future multiuser benchmarks" — and
// returns each query's response time. Each query gets its own scheduler
// process, as Gamma's dispatcher would assign.
func (m *Machine) RunConcurrent(qs []ConcurrentQuery) []Result {
	m.ResetPools()
	results := make([]Result, len(qs))
	for i, q := range qs {
		switch {
		case q.Select != nil:
			m.launchQuery(&results[i], m.selectBody(*q.Select, &results[i]), nil)
		case q.Join != nil:
			m.launchQuery(&results[i], m.joinBody(*q.Join, &results[i]), nil)
		default:
			panic("core: empty ConcurrentQuery")
		}
	}
	m.Sim.Run()
	for i := range results {
		m.diagnose(&results[i])
	}
	return results
}
