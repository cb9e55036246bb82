// Package trace defines the typed, structured event stream emitted by the
// simulation kernel (internal/sim), the device models (internal/disk,
// internal/nose), and both machines (internal/core, internal/teradata), and
// the Collector that logs it and exports it as JSONL. Each fact is one
// record, emitted by the one place that knows it: a resource reservation is
// one service event from sim.Resource, a query one span on either machine, a
// Gamma operator or a Teradata AMP step one op-start/op-done span from its
// machine's one lifecycle. Which resource bound a query is not decided here:
// nose.Counters.Verdict classifies the machine's counters, traced or not.
//
// The package is a leaf: it imports nothing from the repository, so every
// layer above it can emit events without cycles. Times are simulated
// microseconds (the unit of sim.Time); emitters convert implicitly since
// both are int64s.
//
// The event stream is strictly deterministic: the simulation kernel's
// hand-off discipline totally orders emissions, so identical seed and
// configuration produce a byte-identical JSONL export — a property the
// regression suite asserts.
package trace

// Kind discriminates event records. String-typed so JSONL lines read
// without a decoder ring.
type Kind string

const (
	// KindService: one reservation of a FIFO resource (sim.Resource: a CPU,
	// NIC or drive). At is the request instant and [Start, End] the service
	// interval, so the queueing delay is Start - At. Emitted when the
	// request is made: arrivals are totally ordered, so the interval is
	// already final.
	KindService Kind = "service"
	// KindDiskOp: one page access with its positioning class
	// (seq-read/rand-read/seq-write/rand-write) in Class.
	KindDiskOp Kind = "disk-op"
	// KindPacket: a data or end-of-stream packet crossed the ring from
	// node From to node To.
	KindPacket Kind = "packet"
	// KindLocalMsg: a same-node message short-circuited by the
	// communications software (§2) — no NIC or ring involvement.
	KindLocalMsg Kind = "local-msg"
	// KindCtlMsg: an inter-node scheduler/operator control message.
	KindCtlMsg Kind = "ctl-msg"
	// KindOpStart / KindOpDone bracket one Gamma operator process at one
	// site (selection, spool scan, store, collect, join, the aggregate and
	// the update operators), or one Teradata AMP step. Op-start's Class
	// names the kind; op-done's N is the count it reports: tuples produced,
	// folded or changed (a join reports its output per probe phase, and a
	// Teradata route nothing, so their N is 0). An operator that aborts or
	// dies has no op-done.
	KindOpStart Kind = "op-start"
	KindOpDone  Kind = "op-done"
	// KindPhaseStart / KindPhaseDone bracket one phase inside an operator
	// (join build, probe, overflow round build/probe), so the Figure 13
	// analysis can attribute time to individual join phases.
	KindPhaseStart Kind = "phase-start"
	KindPhaseDone  Kind = "phase-done"
	// KindQueryStart / KindQueryDone bracket one query's host-to-host span.
	KindQueryStart Kind = "query-start"
	KindQueryDone  Kind = "query-done"
	// KindFault: an injected hardware failure took effect. Class is the
	// failure mode ("node-crash", "drive-fail", "nic-outage"), Node the
	// victim.
	KindFault Kind = "fault"
	// KindFailover: the scheduler reacted to a detected failure. Class is
	// the step ("abort" when a query attempt is torn down, "retry" when its
	// work is re-dispatched to backup fragments); Query names the query and
	// N the attempt number.
	KindFailover Kind = "failover"
	// KindSharedScan: an operator joined ("attach") or left ("detach") a
	// shared heap-scan cursor. Op is the rider, Node/File name the cursor,
	// Page is the attach point; on detach N is the number of page reads the
	// rider saved by sharing (pages delivered minus pages it read itself).
	KindSharedScan Kind = "shared-scan"
	// KindHeal: the healing manager changed state. Class is the step:
	// "detect" when heartbeat silence (or a bad-drive report) confirmed a
	// site down, "rejoin" when a node returned from an outage, "restored"
	// when every fragment regained full redundancy (N is the µs since the
	// oldest open fault). Node is the site's node id, Site the disk index.
	KindHeal Kind = "heal"
	// KindPromote: the healer atomically promoted a fragment's backup to
	// primary in the fragment directory. Res names the relation, Site the
	// fragment index, From the dead primary's node, To the promoted copy's.
	KindPromote Kind = "promote"
	// KindRebuild: background re-replication of one fragment. Class is
	// "start" or "done" ("abort" when the source or target died mid-copy);
	// Res names the relation, Site the fragment index, From the surviving
	// copy's node, To the rebuild target; on done N is pages copied and
	// Bytes the bytes streamed.
	KindRebuild Kind = "rebuild"
)

// Event is one record of the stream. A single flat struct keeps JSONL
// encoding trivial and deterministic. Zero-valued fields are omitted from
// the JSON encoding; since Go decoding restores omitted fields to their
// zero values, round-tripping is lossless.
type Event struct {
	At    int64  `json:"at"` // simulated µs at emission
	Kind  Kind   `json:"kind"`
	Res   string `json:"res,omitempty"`   // resource name (service, disk ops)
	Class string `json:"class,omitempty"` // disk positioning class, packet kind, phase label
	Op    string `json:"op,omitempty"`    // operator id (op/phase spans)
	Query string `json:"query,omitempty"` // query id (query spans)
	Node  int    `json:"node,omitempty"`  // node the event happened on
	Site  int    `json:"site,omitempty"`  // operator site index
	From  int    `json:"from,omitempty"`  // sending node (packets)
	To    int    `json:"to,omitempty"`    // receiving node (packets)
	Start int64  `json:"start,omitempty"` // service interval start (service)
	End   int64  `json:"end,omitempty"`   // service interval end (service)
	Bytes int    `json:"bytes,omitempty"` // payload size (disk ops, packets)
	File  int    `json:"file,omitempty"`  // file id (disk ops)
	Page  int    `json:"page,omitempty"`  // page number (disk ops)
	N     int    `json:"n,omitempty"`     // generic count (tuples produced)
	Dur   int64  `json:"dur,omitempty"`   // attributed cost µs (ctl messages)
}

// Sink receives events. The Collector is the standard sink; the interface
// exists so emitters (sim, disk, nose, core) depend only on this package.
type Sink interface {
	Emit(e Event)
}
