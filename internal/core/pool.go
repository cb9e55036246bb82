package core

import (
	"sync"

	"gamma/internal/rel"
)

// packetPool recycles the packets that carry tuples across the network, each
// with its tuple buffer. A split table takes one when it starts filling a
// packet and hands it off with the Send; the consumer returns it once the
// batch is processed. The message boxes the *packet, not a copy, so neither
// side allocates once the pool is warm. Every consumer copies tuple values
// out of the batch (tuples are plain value structs), so returned packets hold
// no live references.
//
// Within one simulation the kernel's hand-off discipline serializes all
// access; the sync.Pool makes recycling safe across the independent sims
// the parallel bench runner drives concurrently. Pooling cannot perturb
// determinism: packet identity is invisible to the simulation, and every
// slot is overwritten before it is read.
var packetPool sync.Pool

// getPacket returns an empty packet of stream, recycling a previous packet
// when one is available.
func getPacket(stream streamID, capHint int) *packet {
	if v := packetPool.Get(); v != nil {
		pk := v.(*packet)
		pk.stream, pk.tuples = stream, pk.tuples[:0]
		return pk
	}
	return &packet{stream: stream, tuples: make([]rel.Tuple, 0, capHint)}
}

// putPacket returns a packet to the pool. The caller must not touch it
// afterwards.
func putPacket(pk *packet) { packetPool.Put(pk) }
