package core

import (
	"gamma/internal/config"
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// streamID tags the packets of one dataflow phase so an operator port can
// carry multiple sequential streams (build, probe, overflow rounds).
type streamID int

const (
	streamBuild streamID = iota
	streamProbe
	streamStore
	// Overflow rounds use streamRound + level.
	streamRound
)

// packet is the payload of a Data message: a batch of tuples belonging to
// one stream.
type packet struct {
	stream streamID
	tuples []rel.Tuple
}

// eosPayload closes one producer's contribution to a stream.
type eosPayload struct {
	stream streamID
}

const eosBytes = 64 // an end-of-stream message is a small packet

// RouteFn maps a tuple to a destination index, or -1 to drop it.
type RouteFn func(t rel.Tuple) int

// HashRoute routes by hashing attr with the given seed — the same function
// used to decluster relations at load time when seed == LoadSeed, which is
// what makes Local joins on the partitioning attribute short-circuit.
func HashRoute(attr rel.Attr, seed uint64, n int) RouteFn {
	return func(t rel.Tuple) int {
		return int(rel.Hash64(t.Get(attr), seed) % uint64(n))
	}
}

// RRRoute routes round-robin, Gamma's default for result relations.
func RRRoute(n int) RouteFn {
	i := -1
	return func(rel.Tuple) int {
		i++
		return i % n
	}
}

// BitFilter is a Babb bit-vector filter (§2, [BABB79]): a fixed-size bitmap
// of hashed join-attribute values that a split table can consult to drop
// probe tuples with no possible match before they reach the network.
type BitFilter struct {
	bits []uint64
	seed uint64
}

// NewBitFilter creates a filter with the given number of bits (rounded up).
func NewBitFilter(nbits int, seed uint64) *BitFilter {
	if nbits < 64 {
		nbits = 64
	}
	return &BitFilter{bits: make([]uint64, (nbits+63)/64), seed: seed}
}

// Add inserts a value.
func (b *BitFilter) Add(v int32) {
	h := rel.Hash64(v, b.seed) % uint64(len(b.bits)*64)
	b.bits[h/64] |= 1 << (h % 64)
}

// MayContain reports whether v could have been added (no false negatives).
func (b *BitFilter) MayContain(v int32) bool {
	h := rel.Hash64(v, b.seed) % uint64(len(b.bits)*64)
	return b.bits[h/64]&(1<<(h%64)) != 0
}

// Bytes returns the wire size of the filter.
func (b *BitFilter) Bytes() int { return len(b.bits) * 8 }

// Merge ORs another filter into this one.
func (b *BitFilter) Merge(o *BitFilter) {
	for i := range b.bits {
		b.bits[i] |= o.bits[i]
	}
}

// splitTable demultiplexes an operator's output stream across destination
// ports (§2). Tuples are buffered per destination and sent as network
// packets; Close flushes partial packets and sends end-of-stream to every
// destination.
type splitTable struct {
	node   *nose.Node
	prm    *config.Params
	stream streamID
	ports  []*nose.Port
	conns  []*nose.Conn
	bufs   [][]rel.Tuple
	route  RouteFn
	// tupleBytes is the logical on-wire width of this stream's tuples
	// (projected streams are narrower than the 208-byte base tuples).
	tupleBytes int
	// filters, if non-nil, holds one bit-vector filter per destination;
	// tuples whose join attribute misses the destination's filter are
	// dropped before transmission.
	filters    []*BitFilter
	filterAttr rel.Attr
	// project, if non-nil, keeps only these attributes of each routed
	// tuple (the rest are zeroed) — applied after routing and filtering,
	// both of which may need dropped attributes.
	project []rel.Attr

	// pp is the flush threshold: perPacket(), cached so the per-tuple send
	// path does no division.
	pp int

	sent    int
	dropped int
	// pendingInstr accumulates per-tuple CPU work, charged in batches at
	// packet boundaries to keep the event count proportional to packets,
	// not tuples.
	pendingInstr int
}

func newSplitTable(node *nose.Node, prm *config.Params, stream streamID, ports []*nose.Port, route RouteFn) *splitTable {
	st := &splitTable{node: node, prm: prm, stream: stream, ports: ports, route: route, tupleBytes: prm.TupleBytes}
	st.pp = st.perPacket()
	for _, pt := range ports {
		st.conns = append(st.conns, node.Dial(pt))
		st.bufs = append(st.bufs, nil)
	}
	return st
}

// setWidth narrows the stream's tuple width (projection).
func (st *splitTable) setWidth(bytes int) {
	if bytes > 0 {
		st.tupleBytes = bytes
		st.pp = st.perPacket()
	}
}

// perPacket returns how many tuples of this stream fit one network packet.
func (st *splitTable) perPacket() int {
	n := st.prm.Net.PacketBytes / st.tupleBytes
	if n < 1 {
		n = 1
	}
	return n
}

// setFilters installs Babb filters (one per destination).
func (st *splitTable) setFilters(attr rel.Attr, filters []*BitFilter) {
	st.filterAttr = attr
	st.filters = filters
}

// send routes one tuple, transmitting a packet when a buffer fills.
func (st *splitTable) send(p *sim.Proc, t rel.Tuple) {
	st.pendingInstr += st.prm.Engine.InstrPerTupleRoute
	d := st.route(t)
	if d < 0 {
		return
	}
	if st.filters != nil && st.filters[d] != nil && !st.filters[d].MayContain(t.Get(st.filterAttr)) {
		st.dropped++
		return
	}
	if st.project != nil {
		var pt rel.Tuple
		for _, a := range st.project {
			pt.Set(a, t.Get(a))
		}
		t = pt
	}
	if st.bufs[d] == nil {
		st.bufs[d] = getTupleBuf(st.pp)
	}
	st.bufs[d] = append(st.bufs[d], t)
	if len(st.bufs[d]) >= st.pp {
		st.flush(p, d)
	}
}

// chargePending flushes accumulated per-tuple CPU to the node's CPU.
func (st *splitTable) chargePending(p *sim.Proc) {
	if st.pendingInstr > 0 {
		st.node.UseCPU(p, st.pendingInstr)
		st.pendingInstr = 0
	}
}

func (st *splitTable) flush(p *sim.Proc, d int) {
	st.chargePending(p)
	buf := st.bufs[d]
	if len(buf) == 0 {
		return
	}
	st.bufs[d] = nil
	st.sent += len(buf)
	bytes := len(buf) * st.tupleBytes
	st.conns[d].Send(p, nose.Data, packet{stream: st.stream, tuples: buf}, bytes)
}

// close flushes all partial packets and sends end-of-stream to every
// destination (§2: closing the output streams sends end-of-stream messages
// to each destination process).
func (st *splitTable) close(p *sim.Proc) {
	st.chargePending(p)
	for d := range st.conns {
		st.flush(p, d)
	}
	for d := range st.conns {
		st.conns[d].Send(p, nose.EndOfStream, eosPayload{stream: st.stream}, eosBytes)
	}
}
