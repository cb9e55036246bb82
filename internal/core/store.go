package core

import (
	"fmt"

	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// spawnStore starts a store operator on a result fragment's node: it
// receives result tuples, assigns record ids, and writes pages to the local
// drive with write-behind (§2: "store operators at each disk site assume
// responsibility for writing the result tuples to disk"). It terminates once
// the scheduler's ctlClose count of end-of-stream messages has arrived (the
// count is sent when the number of producer phases is finally known:
// overflow rounds make it dynamic).
func spawnStore(m *Machine, from *sim.Proc, opID string, site int, frag *Fragment, in *nose.Port, sched *nose.Port) {
	m.initiate(from, frag.Node, fmt.Sprintf("%s@%d", opID, frag.Node.ID), func(p *sim.Proc) {
		if in.Closed() {
			return // the node went down, taking the mailbox, after the scheduler set the operator up
		}
		// An abort needs no flush: the scheduler drops the partial result
		// relation afterwards.
		defer opExit(p, frag.Node, opID, site, in, sched, nil)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpStart, Op: opID, Node: frag.Node.ID, Site: site, Class: "store"})
		eng := m.Prm.Engine
		ap := frag.File.NewAppender()
		recvStream(p, in, streamStore, -1, func(ts []rel.Tuple) {
			frag.Node.UseCPU(p, eng.InstrPerTupleStore*len(ts))
			for _, t := range ts {
				ap.Append(p, t)
				m.logRecord(p, frag.Node, m.Prm.TupleBytes)
			}
		})
		n := ap.Close(p)
		m.logForce(p, frag.Node)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpDone, Op: opID, Node: frag.Node.ID, Site: site, N: n})
		nose.SendCtl(p, frag.Node, sched, doneMsg{op: opID, site: site, produced: n})
		in.Close()
	})
}

// spawnCollector starts a lightweight sink on a node (typically the host)
// that counts result tuples instead of storing them — used for single-tuple
// selects returned to the user. It obeys the same close protocol as a store
// operator, but its start is not charged to the scheduler (Machine.start,
// not initiate).
func spawnCollector(m *Machine, from *sim.Proc, opID string, node *nose.Node, in *nose.Port, sched *nose.Port) {
	m.start(from, node, fmt.Sprintf("%s@%d", opID, node.ID), func(p *sim.Proc) {
		defer opExit(p, node, opID, 0, in, sched, nil)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpStart, Op: opID, Node: node.ID, Site: 0, Class: "collect"})
		eng := m.Prm.Engine
		total := 0
		recvStream(p, in, streamStore, -1, func(ts []rel.Tuple) {
			node.UseCPU(p, eng.InstrPerTupleStore*len(ts))
			total += len(ts)
		})
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpDone, Op: opID, Node: node.ID, Site: 0, N: total})
		nose.SendCtl(p, node, sched, doneMsg{op: opID, site: 0, produced: total})
		in.Close()
	})
}
