// Package nose models NOSE, the operating system Gamma is built on (§2):
// processors connected by a token ring, lightweight processes, ports, and a
// reliable sliding-window datagram service.
//
// The cost structure follows the paper's analysis:
//
//   - The 80 Mbit/s Proteon ring itself is "never a bottleneck"; the 4 Mbit/s
//     Unibus path from memory to the network interface is (§5.2.1). Each node
//     therefore has a NIC resource capped at Unibus bandwidth, shared by
//     inbound and outbound traffic, while the ring contributes only transit
//     latency (it is accounted, never contended).
//   - Messages between processes on the same processor are short-circuited by
//     the communications software (§2) and cost only a little CPU.
//   - The sliding-window protocol bounds the packets a sender may have
//     outstanding to one destination; a slow consumer therefore stalls its
//     producers, which is how a saturated NIC pushes back on a disk scan
//     (§5.2.1's explanation of the 10% selection speedup curve).
//
// Every remote delivery — data, end-of-stream, control, bulk transfer — is
// floored at Net.MinLatency after its send instant, the physical delivery
// floor of the ring: no node can affect another sooner. Window credits
// return to the sender the same way (one MinLatency hop back).
//
// A data message is one wire packet: it takes one window credit and one
// protocol-CPU charge on each side, and never exceeds Net.PacketBytes.
package nose

import (
	"fmt"
	"slices"

	"gamma/internal/config"
	"gamma/internal/disk"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// MsgKind distinguishes the three message classes of §2.
type MsgKind int

const (
	// Data is a packet of tuples flowing through a split table.
	Data MsgKind = iota
	// EndOfStream closes one producer's output stream to a port.
	EndOfStream
	// Control is a scheduler/operator control message.
	Control
)

func (k MsgKind) String() string {
	switch k {
	case Data:
		return "data"
	case EndOfStream:
		return "eos"
	default:
		return "control"
	}
}

// Message is a datagram delivered to a Port.
type Message struct {
	From    *Node
	Kind    MsgKind
	Payload any
	// release returns the sender's window credit; set on remote sends and
	// invoked when the receiver consumes the message.
	release func()
}

// Stats aggregates network activity.
type Stats struct {
	DataPackets int64 // packets that crossed the ring
	LocalMsgs   int64 // messages short-circuited on one node
	CtlMsgs     int64 // inter-node control messages
	RingBytes   int64
}

// Network is the token ring plus every node attached to it.
type Network struct {
	sim   *sim.Sim
	cfg   config.Net
	cpu   config.CPU
	nodes []*Node
}

// NewNetwork creates an empty ring.
func NewNetwork(s *sim.Sim, cfg config.Net, cpu config.CPU) *Network {
	return &Network{sim: s, cfg: cfg, cpu: cpu}
}

// Sim returns the simulation the network runs on.
func (n *Network) Sim() *sim.Sim { return n.sim }

// Stats sums the per-node activity counters.
func (n *Network) Stats() Stats {
	var s Stats
	for _, nd := range n.nodes {
		s.DataPackets += nd.stats.DataPackets
		s.LocalMsgs += nd.stats.LocalMsgs
		s.CtlMsgs += nd.stats.CtlMsgs
		s.RingBytes += nd.stats.RingBytes
	}
	return s
}

// Nodes returns all attached nodes in attachment order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Node is one processor: a CPU, a network interface, and optionally a disk
// drive (§2: 8 of Gamma's 17 processors have disks).
type Node struct {
	ID  int
	net *Network
	CPU *sim.Resource
	NIC *sim.Resource
	// Drive is nil on diskless processors.
	Drive *disk.Drive
	// SpoolNode is where this node's temporary files live: itself for
	// disk nodes, an assigned disk node for diskless processors (join
	// overflow resolution spools partitions to temporary files, §6).
	SpoolNode *Node

	// Activity counters (the sender owns every counter a send touches).
	stats    Stats
	ringBusy sim.Dur
	ctlBusy  sim.Dur

	failed bool
	ports  []*Port

	// free heads the list of in-flight records (see flight) of this node's
	// outgoing connections that are not in use. Send takes one and the ACK
	// returns it.
	free *flight
	// bulkFree heads the free list of TransferBulk call records whose sender
	// is this node.
	bulkFree *bulkCall
}

// Fail marks the node crashed: every existing port is closed (queued and
// future messages are dropped with their window credits returned to the
// senders) and ports created later start closed. The caller is responsible
// for killing the node's processes and failing its drive; Fail only severs
// the node from the network. Idempotent.
func (nd *Node) Fail() {
	if nd.failed {
		return
	}
	nd.failed = true
	for _, pt := range nd.ports {
		pt.Close()
	}
}

// Failed reports whether the node has crashed.
func (nd *Node) Failed() bool { return nd.failed }

// Recover reattaches a failed node (the rejoin half of a transient outage):
// ports created from now on open normally. Ports closed by the failure stay
// closed — their receivers are gone — and the caller is responsible for
// restarting processes and repairing the drive, mirroring Fail. Idempotent.
func (nd *Node) Recover() { nd.failed = false }

// AddNode attaches a node; diskCfg is used only when withDisk is true.
func (n *Network) AddNode(withDisk bool, diskCfg config.Disk) *Node {
	id := len(n.nodes)
	nd := &Node{
		ID:  id,
		net: n,
		CPU: n.sim.NewResource(fmt.Sprintf("cpu%d", id)),
		NIC: n.sim.NewResource(fmt.Sprintf("nic%d", id)),
	}
	if withDisk {
		nd.Drive = disk.New(n.sim, fmt.Sprintf("disk%d", id), diskCfg)
		nd.SpoolNode = nd
	}
	n.nodes = append(n.nodes, nd)
	return nd
}

// Network returns the ring the node is attached to.
func (nd *Node) Network() *Network { return nd.net }

// UseCtl charges d of control-message CPU time to the node on behalf of p:
// CPU time like any other, also counted apart (NodeCounters.Ctl), so a
// verdict can tell control-plane time from data-plane time (§6.2.3).
func (nd *Node) UseCtl(p *sim.Proc, d sim.Dur) {
	nd.CPU.Use(p, d)
	nd.ctlBusy += d
}

// UseCPU charges instr instructions to the node's CPU on behalf of p.
func (nd *Node) UseCPU(p *sim.Proc, instr int) {
	if instr > 0 {
		nd.CPU.Use(p, nd.net.cpu.Time(instr))
	}
}

// ReserveCPU queues instr instructions on the node's CPU and returns their
// completion time: the stage form of UseCPU, for an itinerary
// (sim.Proc.Steps). Unlike UseCPU it reserves even when instr is zero.
func (nd *Node) ReserveCPU(instr int) sim.Time {
	return nd.CPU.Reserve(nd.net.cpu.Time(instr))
}

// Port is a well-known mailbox on a node. Operator processes receive their
// input streams and control packets through ports.
type Port struct {
	node *Node
	name string
	// queue[head:] holds the undelivered messages in arrival order. Recv
	// zeroes the slot it pops and advances head, and the backing array is
	// recycled each time the queue drains (the idiom of sim.WaitQ) or fills
	// up with consumed slots, so a consumed message is not kept reachable
	// and a steady stream does not make deliver's append reallocate for the
	// life of the port.
	queue  []Message
	head   int
	recvq  *sim.WaitQ
	closed bool

	// The receive under way in stage form (see StartRecv): its process, its
	// stage (1 waiting for a message, 2 charging its CPU) and the message.
	rp     *sim.Proc
	rstage int
	got    Message
	recv   func() (sim.Time, bool) // StepRecv, bound once for Recv
}

// NewPort creates a named port on the node. A port created on a failed node
// starts closed. The node keeps a registry of its ports for Fail to close;
// closed ports are dropped from it, in place and in order, whenever it is
// full, so it holds about as many ports as the node ever has open at once.
func (nd *Node) NewPort(name string) *Port {
	pt := &Port{node: nd, name: name, recvq: nd.net.sim.NewWaitQ("port:" + name), closed: nd.failed}
	pt.recv = pt.StepRecv
	if len(nd.ports) == cap(nd.ports) {
		nd.ports = slices.DeleteFunc(nd.ports, (*Port).Closed)
	}
	nd.ports = append(nd.ports, pt)
	return pt
}

// Close shuts the mailbox: queued messages are discarded and future
// deliveries are dropped, in both cases returning the senders' window
// credits so no producer blocks forever on a dead consumer. The receiver
// must not be parked on the port when it closes (operators close their own
// port on exit; crashed nodes' receivers are killed before their ports
// close). Idempotent.
func (pt *Port) Close() {
	if pt.closed {
		return
	}
	pt.closed = true
	for _, m := range pt.queue[pt.head:] {
		if m.release != nil {
			m.release()
		}
	}
	pt.queue, pt.head = nil, 0
}

// Closed reports whether the port has been closed.
func (pt *Port) Closed() bool { return pt.closed }

// Node returns the port's home node.
func (pt *Port) Node() *Node { return pt.node }

// Name returns the port name.
func (pt *Port) Name() string { return pt.name }

// Pending returns the number of queued, undelivered messages.
func (pt *Port) Pending() int { return len(pt.queue) - pt.head }

// deliver enqueues m and wakes one waiting receiver. Kernel context.
// Delivery to a closed port drops the message, immediately returning the
// sender's window credits.
func (pt *Port) deliver(m Message) {
	if pt.closed {
		if m.release != nil {
			m.release()
		}
		return
	}
	if pt.head > 0 && pt.head >= len(pt.queue)/2 && len(pt.queue) == cap(pt.queue) {
		// Full, and at least half of it is consumed slots: slide the backlog
		// down instead of growing, so a port that never quite drains stays
		// as small as its backlog.
		n := copy(pt.queue, pt.queue[pt.head:])
		clear(pt.queue[n:])
		pt.queue, pt.head = pt.queue[:n], 0
	}
	pt.queue = append(pt.queue, m)
	pt.recvq.WakeOne()
}

// Recv blocks p until a message is available and returns it. Receiving a
// remote data message charges the protocol-processing CPU cost of one packet
// to p.
func (pt *Port) Recv(p *sim.Proc) Message {
	pt.StartRecv(p)
	p.Steps(pt.recv)
	return pt.Received()
}

// StartRecv arms the stage form of Recv for p: StepRecv is a sub-itinerary
// (sim.Proc.Steps) that waits on the port while it is empty, takes the next
// message and charges its protocol CPU; Received then returns the message.
func (pt *Port) StartRecv(p *sim.Proc) {
	pt.rp, pt.rstage = p, 1
}

// StepRecv takes the receive's next stage and returns its completion time, or
// reports false once the message is taken and its window credit released.
func (pt *Port) StepRecv() (sim.Time, bool) {
	switch pt.rstage {
	case 1:
		if pt.Pending() == 0 {
			return pt.recvq.ParkStep(pt.rp), true
		}
		m := pt.queue[pt.head]
		pt.queue[pt.head] = Message{}
		pt.head++
		if pt.head == len(pt.queue) {
			pt.queue, pt.head = pt.queue[:0], 0
		}
		pt.got, pt.rstage = m, 2
		if instr := pt.node.net.cfg.InstrPerPacket; instr > 0 && m.From != nil && m.From != pt.node && m.Kind == Data {
			return pt.node.ReserveCPU(instr), true
		}
		fallthrough
	case 2:
		if pt.got.release != nil {
			pt.got.release()
			pt.got.release = nil
		}
		pt.rp, pt.rstage = nil, 0
	}
	return 0, false
}

// Received returns the message the last receive took, and forgets it.
func (pt *Port) Received() Message {
	m := pt.got
	pt.got = Message{}
	return m
}

// RecvTimeout is Recv with a deadline: it blocks p until a message arrives
// or d elapses, reporting false on timeout. Used by a failover-armed
// scheduler to detect a dead operator by silence on its inbox.
func (pt *Port) RecvTimeout(p *sim.Proc, d sim.Dur) (Message, bool) {
	deadline := p.Now() + d
	for pt.Pending() == 0 {
		if !pt.recvq.ParkTimeout(p, deadline-p.Now()) && pt.Pending() == 0 {
			return Message{}, false
		}
	}
	return pt.Recv(p), true
}

// Conn is a sender's sliding-window connection to a destination port. Each
// (producer process, destination) pair uses its own Conn.
type Conn struct {
	from    *Node
	to      *Port
	credits int
	waitq   sim.WaitQ // senders waiting for a window credit
	// lastArr is the latest arrival scheduled on this connection. The
	// window protocol delivers in order, so a later message never arrives
	// before an earlier one — without this floor a small end-of-stream
	// message could overtake a full data packet whose ring transit
	// dominates its arrival time.
	lastArr sim.Time

	// The send under way in stage form (see Start).
	p            *sim.Proc
	kind         MsgKind
	payload      any
	bytes, stage int
	step         func() (sim.Time, bool) // Step, bound by the first Send
}

// The stages of a send.
const (
	sendIdle = iota
	sendStart
	sendCredit
	sendPacket
	sendLocal
)

// flight is one remote message in transit, from Send until its window
// credit is back. Its four callbacks are the four events a remote message
// costs; they are bound when the record is first allocated, and a free record
// serves any connection of its sending node (connections live for one
// operator, nodes for the machine), so a node in steady state sends without
// allocating. One fault path is outside that: a message whose receiver dies
// before releasing it is never acknowledged, so its record is garbage rather
// than recycled.
type flight struct {
	c       *Conn // the connection it is travelling on
	kind    MsgKind
	payload any
	bytes   int
	next    *flight // free list

	arrive, land, consume, ack func()
}

// take returns a free in-flight record for a message on c, allocating one
// (and binding its callbacks) only while the sending node has fewer than it
// needs.
func (c *Conn) take() *flight {
	f := c.from.free
	if f == nil {
		f = &flight{}
		f.arrive, f.land, f.consume, f.ack = f.onArrive, f.onLand, f.onConsume, f.onAck
	} else {
		c.from.free, f.next = f.next, nil
	}
	f.c = c
	return f
}

// onArrive runs at the arrival instant: the message crosses the receiving
// Unibus.
func (f *flight) onArrive() {
	to := f.c.to.node
	to.net.sim.At(to.NIC.UseAsync(to.net.cfg.NICTime(f.bytes)), f.land)
}

// onLand puts the message in the port. The credit returns only when the
// receiving process consumes it (Port.Recv), so a slow consumer stalls its
// producers once the window fills.
func (f *flight) onLand() {
	f.c.to.deliver(Message{From: f.c.from, Kind: f.kind, Payload: f.payload, release: f.consume})
	f.payload = nil // the port owns it now; the record outlives it by an ACK
}

// onConsume is the message's release: it routes the window-credit ACK back
// to the sender one MinLatency hop later.
func (f *flight) onConsume() {
	net := f.c.from.net
	net.sim.At(net.sim.Now()+net.cfg.MinLatency, f.ack)
}

// onAck: the credit is back and the record is free again.
func (f *flight) onAck() {
	c := f.c
	c.credits++
	c.waitq.WakeOne()
	f.c = nil
	f.next, c.from.free = c.from.free, f
}

// Dial opens a connection from nd to the port.
func (nd *Node) Dial(to *Port) *Conn {
	c := new(Conn)
	nd.dial(c, to)
	return c
}

// DialAll opens a connection from nd to each of ports, all in one
// allocation: a split table's one per destination.
func (nd *Node) DialAll(ports []*Port) []Conn {
	cs := make([]Conn, len(ports))
	for i, to := range ports {
		nd.dial(&cs[i], to)
	}
	return cs
}

// dial opens c, a connection from nd to the port, in place.
func (nd *Node) dial(c *Conn, to *Port) {
	w := nd.net.cfg.Window
	if w <= 0 {
		w = 1
	}
	*c = Conn{from: nd, to: to, credits: w, waitq: nd.net.sim.MakeWaitQ("win")}
}

// Local reports whether the connection short-circuits (same node).
func (c *Conn) Local() bool { return c.from == c.to.node }

// Send transmits a data message of the given byte size carrying payload.
// Same-node sends short-circuit: a little CPU and immediate delivery.
// A remote send is one wire packet of at most PacketBytes: it consumes one
// window credit (blocking while the window has none), the sender's protocol
// CPU and NIC, and the ring's transit latency; the arrival is floored at
// MinLatency after the send instant, the receiver's NIC is charged on
// arrival, and the credit returns one MinLatency hop after the receiver
// consumes the message.
func (c *Conn) Send(p *sim.Proc, kind MsgKind, payload any, bytes int) {
	c.Start(p, kind, payload, bytes)
	if c.step == nil {
		c.step = c.Step
	}
	p.Steps(c.step)
}

// Start arms the stage form of Send on p's behalf: Step is a sub-itinerary
// (sim.Proc.Steps) that makes the kernel calls of Send in Send's order.
func (c *Conn) Start(p *sim.Proc, kind MsgKind, payload any, bytes int) {
	if pb := c.from.net.cfg.PacketBytes; bytes > pb && !c.Local() {
		panic(fmt.Sprintf("nose: %d-byte message exceeds the %d-byte packet", bytes, pb))
	}
	c.p, c.kind, c.payload, c.bytes, c.stage = p, kind, payload, bytes, sendStart
}

// Step takes the send's next stage — a wait for a window credit, the protocol
// CPU, the sender's wait while its NIC pushes the packet out — and returns its
// completion time, or reports false once the message is on its way.
func (c *Conn) Step() (sim.Time, bool) {
	net := c.from.net
	cfg := &net.cfg
	switch c.stage {
	case sendStart:
		if c.Local() {
			c.stage = sendLocal
			if instr := cfg.InstrPerLocalMsg; instr > 0 {
				return c.from.ReserveCPU(instr), true
			}
			return c.Step()
		}
		c.stage = sendCredit
		fallthrough
	case sendCredit:
		if c.credits == 0 {
			return c.waitq.ParkStep(c.p), true
		}
		c.credits--
		c.stage = sendPacket
		if instr := cfg.InstrPerPacket; instr > 0 {
			return c.from.ReserveCPU(instr), true
		}
		fallthrough
	case sendPacket:
		t0 := net.sim.Now()
		nicDone := c.from.NIC.UseAsync(cfg.NICTime(c.bytes))
		c.from.stats.DataPackets++
		c.from.stats.RingBytes += int64(c.bytes)
		c.from.ringBusy += cfg.RingTime(c.bytes)
		if net.sim.Tracing() {
			net.sim.Emit(trace.Event{
				At: int64(t0), Kind: trace.KindPacket,
				Class: c.kind.String(), From: c.from.ID, To: c.to.node.ID, Bytes: c.bytes,
			})
		}
		f := c.take()
		f.kind, f.payload, f.bytes = c.kind, c.payload, c.bytes
		net.sim.At(c.arrival(t0, nicDone, c.bytes), f.arrive)
		c.p, c.payload, c.stage = nil, nil, sendIdle
		// The sender's process is occupied while its Unibus pushes the
		// message out, exactly as the old blocking NIC charge behaved.
		if nicDone > t0 {
			return nicDone, true
		}
	case sendLocal:
		c.from.stats.LocalMsgs++
		if net.sim.Tracing() {
			net.sim.Emit(trace.Event{
				At: int64(net.sim.Now()), Kind: trace.KindLocalMsg,
				Class: c.kind.String(), Node: c.from.ID, Bytes: c.bytes,
			})
		}
		m := Message{From: c.from, Kind: c.kind, Payload: c.payload}
		c.p, c.payload, c.stage = nil, nil, sendIdle
		c.to.deliver(m)
	}
	return 0, false
}

// arrival computes when a message sent at t0 whose sender-NIC copy finishes
// at nicDone reaches the destination node: ring transit after the NIC,
// floored at MinLatency past the send instant, and never before any
// arrival already scheduled on this connection (the channel is FIFO).
func (c *Conn) arrival(t0 sim.Time, nicDone sim.Time, bytes int) sim.Time {
	net := c.from.net
	arr := nicDone + net.cfg.RingTime(bytes)
	if min := t0 + net.cfg.MinLatency; arr < min {
		arr = min
	}
	if arr < c.lastArr {
		arr = c.lastArr
	}
	c.lastArr = arr
	return arr
}

// Bulk is the itinerary of one bulk transfer, outside the port/window
// machinery: the sender's NIC, ring transit floored at MinLatency past the send
// instant, then the receiver's NIC. It is a sub-itinerary for sim.Proc.Steps:
// Start arms it, and each Step call reserves the next stage and returns its
// completion until none is left. The zero Bulk has no stages.
type Bulk struct {
	from, to *Node
	bytes    int
	t0       sim.Time // send instant
	stage    int      // the stage Step reserves next; 0 when none is left
}

const (
	bulkSend = 1 + iota
	bulkTransit
	bulkRecv
)

// Start arms the itinerary for bytes moving from one node to another. A
// transfer between a node and itself, or with a missing endpoint, has no
// stages.
func (b *Bulk) Start(from, to *Node, bytes int) {
	*b = Bulk{from: from, to: to, bytes: bytes}
	if from != to && from != nil && to != nil {
		b.stage = bulkSend
	}
}

// Step reserves the transfer's next stage and returns its completion time, or
// reports false once the bytes have crossed the receiver's NIC.
func (b *Bulk) Step() (sim.Time, bool) {
	if b.stage == 0 {
		return 0, false
	}
	from, cfg := b.from, &b.from.net.cfg
	switch b.stage {
	case bulkSend:
		b.t0 = from.net.sim.Now()
		b.stage = bulkTransit
		return from.NIC.Reserve(cfg.NICTime(b.bytes)), true
	case bulkTransit:
		now := from.net.sim.Now()
		from.stats.RingBytes += int64(b.bytes)
		from.ringBusy += cfg.RingTime(b.bytes)
		b.stage = bulkRecv
		arr := now + cfg.RingTime(b.bytes)
		if min := b.t0 + cfg.MinLatency; arr < min {
			arr = min
		}
		if arr > now {
			return arr, true
		}
		fallthrough
	case bulkRecv:
		b.stage = 0
		return b.to.NIC.Reserve(cfg.NICTime(b.bytes)), true
	}
	return 0, false
}

// bulkCall is the record of one TransferBulk call: the itinerary and its Step
// bound once, recycled through the sending node's free list (the idiom of
// flight) so a steady stream of transfers allocates nothing.
type bulkCall struct {
	Bulk
	step func() (sim.Time, bool)
	next *bulkCall
}

// TransferBulk charges p for moving bytes between two nodes outside the
// port/window machinery (spool-file traffic of diskless processors): p parks
// once while the Bulk itinerary runs. It is a no-op between a node and itself.
func (n *Network) TransferBulk(p *sim.Proc, from, to *Node, bytes int) {
	if from == to || from == nil || to == nil {
		return
	}
	c := from.bulkFree
	if c == nil {
		c = &bulkCall{}
		c.step = c.Step
	} else {
		from.bulkFree, c.next = c.next, nil
	}
	c.Start(from, to, bytes)
	p.Steps(c.step)
	c.next, from.bulkFree = from.bulkFree, c
}

// SendCtl sends a small control message. An inter-node control message
// costs the sender CtlMsg of CPU time (§6.2.3's 7 ms) — which is what
// serializes a scheduler initiating operators across many nodes, since each
// initiation occupies the scheduler's CPU before the next can start — and
// then crosses the wire with the MinLatency floor like any other remote
// send. The cost is counted as control-plane time (UseCtl), and the trace
// event carries it in Dur. Same-node control messages short-circuit.
func SendCtl(p *sim.Proc, from *Node, to *Port, payload any) {
	net := from.net
	if from == to.node {
		from.UseCPU(p, net.cfg.InstrPerLocalMsg)
		from.stats.LocalMsgs++
		if net.sim.Tracing() {
			p.Emit(trace.Event{
				At: int64(p.Now()), Kind: trace.KindLocalMsg,
				Class: Control.String(), Node: from.ID,
			})
		}
		to.deliver(Message{From: from, Kind: Control, Payload: payload})
		return
	}
	from.UseCtl(p, net.cfg.CtlMsg)
	from.stats.CtlMsgs++
	if net.sim.Tracing() {
		p.Emit(trace.Event{
			At: int64(p.Now()), Kind: trace.KindCtlMsg,
			From: from.ID, To: to.node.ID, Dur: int64(net.cfg.CtlMsg),
		})
	}
	net.sim.At(p.Now()+net.cfg.MinLatency, func() {
		to.deliver(Message{From: from, Kind: Control, Payload: payload})
	})
}
