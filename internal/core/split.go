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

// packet is the payload of a Data message, boxed by pointer: a batch of
// tuples belonging to one stream (see packetPool).
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
type RouteFn func(t *rel.Tuple) int

// HashRoute routes by hashing attr with the given seed — the same function
// used to decluster relations at load time when seed == LoadSeed, which is
// what makes Local joins on the partitioning attribute short-circuit.
func HashRoute(attr rel.Attr, seed uint64, n int) RouteFn {
	return func(t *rel.Tuple) int {
		return int(rel.Hash64(t.Get(attr), seed) % uint64(n))
	}
}

// RRRoute routes round-robin, Gamma's default for result relations.
func RRRoute(n int) RouteFn {
	i := -1
	return func(*rel.Tuple) int {
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

// splitTable demultiplexes an operator's output stream across destination
// ports (§2). Tuples are buffered per destination and sent as network
// packets; Close flushes partial packets and sends end-of-stream to every
// destination.
type splitTable struct {
	node   *nose.Node
	prm    *config.Params
	stream streamID
	ports  []*nose.Port
	conns  []nose.Conn
	bufs   []*packet // the packet filling for each destination, or nil
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

	// The output under way in stage form (see start).
	p        *sim.Proc
	stage, d int
	closing  bool
	sending  *nose.Conn
	stepFn   func() (sim.Time, bool)
}

// The stages of a split table's output.
const (
	splitIdle = iota
	splitCharge
	splitData
	splitEOS
)

func newSplitTable(node *nose.Node, prm *config.Params, stream streamID, ports []*nose.Port, route RouteFn) *splitTable {
	st := &splitTable{node: node, prm: prm, stream: stream, ports: ports, route: route, tupleBytes: prm.TupleBytes}
	st.stepFn = st.step
	st.pp = st.perPacket()
	st.conns = node.DialAll(ports)
	st.bufs = make([]*packet, len(ports))
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
func (st *splitTable) send(p *sim.Proc, t *rel.Tuple) {
	if d := st.put(t); d >= 0 {
		st.start(p, d, false)
		p.Steps(st.stepFn)
	}
}

// put routes one tuple into its destination's buffer without sending
// anything, and returns the destination whose packet is full, or -1.
func (st *splitTable) put(t *rel.Tuple) int {
	st.pendingInstr += st.prm.Engine.InstrPerTupleRoute
	d := st.route(t)
	if d < 0 {
		return -1
	}
	if st.filters != nil && st.filters[d] != nil && !st.filters[d].MayContain(t.Get(st.filterAttr)) {
		st.dropped++
		return -1
	}
	pk := st.bufs[d]
	if pk == nil {
		pk = getPacket(st.stream, st.pp)
		st.bufs[d] = pk
	}
	if st.project != nil {
		var pt rel.Tuple
		for _, a := range st.project {
			pt.Set(a, t.Get(a))
		}
		pk.tuples = append(pk.tuples, pt)
	} else {
		pk.tuples = append(pk.tuples, *t)
	}
	if len(pk.tuples) >= st.pp {
		return d
	}
	return -1
}

// close flushes all partial packets and sends end-of-stream to every
// destination (§2: closing the output streams sends end-of-stream messages
// to each destination process).
func (st *splitTable) close(p *sim.Proc) {
	st.start(p, 0, true)
	p.Steps(st.stepFn)
}

// start arms, on p's behalf, the stage form of sending destination d's packet
// — the pending routing CPU, then the packet — or, closing, of close.
func (st *splitTable) start(p *sim.Proc, d int, closing bool) {
	st.p, st.stage, st.d, st.closing = p, splitCharge, d, closing
}

// busy reports whether a flush or close is under way.
func (st *splitTable) busy() bool { return st.stage != splitIdle || st.sending != nil }

// step takes the output's next stage, a sub-itinerary (sim.Proc.Steps).
func (st *splitTable) step() (sim.Time, bool) {
	for {
		if c := st.sending; c != nil {
			if at, more := c.Step(); more {
				return at, true
			}
			st.sending = nil
		}
		switch st.stage {
		case splitCharge:
			st.stage = splitData
			if instr := st.pendingInstr; instr > 0 {
				st.pendingInstr = 0
				return st.node.ReserveCPU(instr), true
			}
		case splitData:
			if st.d == len(st.conns) { // closing: every packet is out
				st.stage, st.d = splitEOS, 0
				continue
			}
			d := st.d
			if st.closing {
				st.d++
			} else {
				st.stage = splitIdle
			}
			if pk := st.bufs[d]; pk != nil {
				st.bufs[d] = nil
				st.sent += len(pk.tuples)
				st.sending = &st.conns[d]
				st.sending.Start(st.p, nose.Data, pk, len(pk.tuples)*st.tupleBytes)
			}
		case splitEOS:
			if st.d == len(st.conns) {
				st.stage = splitIdle
				continue
			}
			st.sending = &st.conns[st.d]
			st.d++
			st.sending.Start(st.p, nose.EndOfStream, eosPayload{stream: st.stream}, eosBytes)
		default:
			st.p = nil
			return 0, false
		}
	}
}
