package core

// Machine-level fault tolerance: chained-declustered replicas, failure
// entry points (disk-node crash, single-drive failure, transient NIC
// outage), and the bookkeeping the per-query failover protocol in query.go
// relies on. The scheduling of failures against the simulation clock lives
// one layer up, in internal/fault.

import (
	"fmt"
	"slices"

	"gamma/internal/disk"
	"gamma/internal/nose"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// DefaultFailoverDetect is the scheduler's operator-silence timeout when
// EnableFailover is given no explicit value. It is large against per-packet
// latencies (so quiet phases of a healthy run never look dead) but small
// against query response times, keeping the detection share of degraded
// response time bounded.
const DefaultFailoverDetect = 250 * sim.Millisecond

// EnableMirroring makes every subsequent Load build chained-declustered
// backup fragments: disk node i holds the primary of fragment i and the
// backup of fragment i-1 (the follow-on Gamma availability design). Must be
// called before the relations that should survive a failure are loaded.
func (m *Machine) EnableMirroring() { m.mirrored = true }

// EnableFailover arms mid-query failure handling: the scheduler's inbox
// waits time out after detect of silence, newly failed sites abort the
// running attempt (partial results are dropped), and the work is
// re-dispatched against backup fragments. detect <= 0 selects
// DefaultFailoverDetect. Failover needs EnableMirroring to have something
// to re-dispatch to.
func (m *Machine) EnableFailover(detect sim.Dur) {
	if detect <= 0 {
		detect = DefaultFailoverDetect
	}
	m.ftDetect = detect
}

// CrashDisk fails disk site (index into m.Disk) completely: its operator
// processes are killed, its ports closed (returning senders' window
// credits), its drive failed, and any diskless processor spooling to it is
// re-assigned to a surviving drive. Idempotent. Kernel context (an event
// function, or between queries).
func (m *Machine) CrashDisk(site int) {
	nd := m.Disk[site]
	if nd.Failed() {
		return
	}
	m.crashes[nd.ID]++
	m.Sim.Emit(trace.Event{
		At: int64(m.Sim.Now()), Kind: trace.KindFault, Class: "node-crash",
		Node: nd.ID, Site: site,
	})
	for _, p := range slices.Clone(m.procs[nd.ID]) {
		p.Kill()
	}
	nd.Fail()
	nd.Drive.Fail()
	m.reassignSpools()
	if m.healer != nil {
		m.healer.noteFault(site)
	}
}

// FailDrive fails only the drive of disk site: the processor stays up, so
// in-flight accesses raise disk.FailedError, the operator reports the loss,
// and detection is immediate rather than timeout-driven. Idempotent.
func (m *Machine) FailDrive(site int) {
	nd := m.Disk[site]
	if nd.Drive.Failed() {
		return
	}
	m.Sim.Emit(trace.Event{
		At: int64(m.Sim.Now()), Kind: trace.KindFault, Class: "drive-fail",
		Node: nd.ID, Site: site,
	})
	nd.Drive.Fail()
	m.reassignSpools()
	if m.healer != nil {
		m.healer.noteFault(site)
	}
}

// NICOutage blocks a node's network interface for d, modeling a transient
// interface fault: traffic queues behind the outage and drains afterwards.
// No failover is involved: the sliding-window protocol simply stalls. node is
// a node ID (any processor, not just disk sites).
func (m *Machine) NICOutage(node int, d sim.Dur) {
	nd := m.Net.Nodes()[node]
	m.Sim.Emit(trace.Event{
		At: int64(m.Sim.Now()), Kind: trace.KindFault, Class: "nic-outage",
		Node: nd.ID, End: int64(m.Sim.Now() + d),
	})
	nd.NIC.UseAsync(d)
}

// OutageDisk takes disk site down exactly like CrashDisk, then schedules its
// rejoin d later: a transient power/partition outage rather than a permanent
// loss. The node comes back cold (empty buffer pool, unknown arm position)
// and immediately eligible as a re-replication target.
func (m *Machine) OutageDisk(site int, d sim.Dur) {
	m.CrashDisk(site)
	m.Sim.At(m.Sim.Now()+d, func() { m.RejoinDisk(site) })
}

// RejoinDisk returns a previously crashed disk site to service: the node and
// drive accept work again, the buffer pool is cold (its contents did not
// survive the outage), and any spool assignment it held before the crash is
// restored. Fragments whose files survived on the drive serve again as soon
// as the directory still points at them; fragments the healer condemned and
// re-replicated elsewhere stay gone — the rejoined node is simply spare
// capacity (and a rebuild target) from here on. Idempotent.
func (m *Machine) RejoinDisk(site int) {
	nd := m.Disk[site]
	if !nd.Failed() {
		return
	}
	nd.Recover()
	nd.Drive.Repair()
	if st := m.stores[nd.ID]; st != nil {
		st.Pool().Reset()
	}
	nd.SpoolNode = nd
	m.Sim.Emit(trace.Event{
		At: int64(m.Sim.Now()), Kind: trace.KindHeal, Class: "rejoin",
		Node: nd.ID, Site: site,
	})
	if m.healer != nil {
		m.healer.noteRejoin(site)
	}
}

// reassignSpools points every processor whose spool drive is gone at the
// first surviving drive (join overflow resolution must keep working in
// degraded mode).
func (m *Machine) reassignSpools() {
	var alive *nose.Node
	for _, nd := range m.Disk {
		if m.driveUp(nd) {
			alive = nd
			break
		}
	}
	if alive == nil {
		return // nothing left to spool to; queries will fail loudly
	}
	for _, nd := range m.Net.Nodes() {
		if nd.SpoolNode != nil && !m.driveUp(nd.SpoolNode) {
			nd.SpoolNode = alive
		}
	}
}

// driveUp reports whether a node can serve disk I/O: the node is running
// and its drive works.
func (m *Machine) driveUp(nd *nose.Node) bool {
	return !nd.Failed() && nd.Drive != nil && !nd.Drive.Failed()
}

// ErrUnavailable is the typed error a query returns when it cannot complete:
// some fragment it needs has no readable copy (two adjacent failures, or no
// mirroring; an update needs its primary), its failover retries were
// exhausted, or an update lost a site it runs on (updates are not retried).
// It fails only the affected query — the machine and every other query keep
// running.
type ErrUnavailable struct {
	// Rel and Frag name the unreadable fragment ("" when the failure is a
	// site lost mid-query rather than a specific fragment found unreadable).
	Rel  string
	Frag int
	// Attempts is how many attempts the query made before giving up.
	Attempts int
}

func (e *ErrUnavailable) Error() string {
	if e.Rel != "" {
		return fmt.Sprintf("core: fragment %d of %s unavailable (no live copy)", e.Frag, e.Rel)
	}
	return fmt.Sprintf("core: unavailable after %d attempt(s): sites it ran on were lost", e.Attempts)
}

// liveFrag returns the readable copy of fragment i of r: the primary, or —
// when the primary's node or drive is lost — its chained-declustered backup.
// backup reports that the degraded copy was chosen. When neither copy is
// readable it returns an *ErrUnavailable (data loss for this fragment; the
// query fails, the machine survives).
func (m *Machine) liveFrag(r *Relation, i int) (frag *Fragment, backup bool, err error) {
	fr := r.Frags[i]
	if m.driveUp(fr.Node) {
		return fr, false, nil
	}
	if i < len(r.Backups) {
		if b := r.Backups[i]; b != nil && m.driveUp(b.Node) {
			return b, true, nil
		}
	}
	return nil, false, &ErrUnavailable{Rel: r.Name, Frag: i}
}

// opExit is every operator's deferred exit handler (spawnOp). An abortSignal
// (the scheduler's ctlAbort) is acknowledged with abortedMsg; a
// disk.FailedError raised by a failed drive becomes an opFailed report, so
// the scheduler detects the loss at once instead of by silence. Either way
// o.drop (if any) releases the operator's temporary files first, and its
// input port (if any) closes so queued senders get their window credits
// back. Any other panic — the kill sentinel of a crashed node included —
// passes through.
func opExit(p *sim.Proc, o *opSpec) {
	r := recover()
	var report any
	switch r.(type) {
	case nil:
		return
	case abortSignal:
		report = abortedMsg{op: o.op, site: o.site}
	case disk.FailedError:
		if o.node.Failed() {
			panic(r)
		}
		report = opFailed{op: o.op, node: o.node.ID}
	default:
		panic(r)
	}
	if o.drop != nil {
		o.drop()
	}
	nose.SendCtl(p, o.node, o.sched, report)
	if o.in != nil {
		o.in.Close()
	}
}

// start runs fn as a process of node nd, registered so that a crash of the
// node kills it; a process started for an already-failed node never runs.
// Every process bound to a node's fate goes through here so CrashDisk can
// find it.
//
// from is the process asking for the start, on another node: the request is
// a message, so it crosses the ring and the process starts one Net.MinLatency
// later — unless the node crashed while the request was in flight, which
// loses it even if the node has rejoined by then (the crash count at send
// and at landing differ). A nil from is a node starting a process of its
// own, at once.
func (m *Machine) start(from *sim.Proc, nd *nose.Node, name string, fn func(p *sim.Proc)) {
	if nd.Failed() {
		return
	}
	run := func() {
		var pr *sim.Proc
		pr = m.Sim.Spawn(name, func(p *sim.Proc) {
			defer func() {
				// Deregister on any exit (normal, killed, or panicking).
				live := m.procs[nd.ID]
				if i := slices.Index(live, pr); i >= 0 {
					m.procs[nd.ID] = slices.Delete(live, i, i+1)
				}
			}()
			fn(p)
		})
		m.procs[nd.ID] = append(m.procs[nd.ID], pr)
	}
	if from == nil {
		run()
		return
	}
	sent := m.crashes[nd.ID]
	m.Sim.At(from.Now()+m.Prm.Net.MinLatency, func() {
		if m.crashes[nd.ID] == sent {
			run()
		}
	})
}
