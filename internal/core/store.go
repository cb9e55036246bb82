package core

import (
	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// spawnStore starts a store operator on a result fragment's node: it
// receives result tuples, assigns record ids, and writes pages to the local
// drive with write-behind (§2: "store operators at each disk site assume
// responsibility for writing the result tuples to disk"). It terminates once
// the scheduler's ctlClose count of end-of-stream messages has arrived (the
// count is sent when the number of producer phases is finally known:
// overflow rounds make it dynamic).
func spawnStore(m *Machine, from *sim.Proc, opID string, site int, frag *Fragment, in *nose.Port, sched *nose.Port) {
	// An abort needs no flush: the scheduler drops the partial result
	// relation afterwards.
	m.spawnOp(from, opSpec{op: opID, class: "store", site: site, node: frag.Node, in: in, sched: sched}, func(p *sim.Proc) (int, any) {
		ap := frag.File.NewAppender()
		write, log := ap.Step, m.logShip(frag.Node, m.Prm.TupleBytes)
		if log != nil {
			// A tuple's log record follows its page write. ap.Step is
			// idle once the write is done, while the record's page ships.
			write = func() (sim.Time, bool) {
				if at, more := ap.Step(); more || ap.Failed() {
					return at, more
				}
				return log()
			}
		}
		rx := streamIn{
			port: in, want: streamStore, expect: -1, node: frag.Node,
			instr: m.Prm.Engine.InstrPerTupleStore,
			take: func(t *rel.Tuple) (int, func() (sim.Time, bool)) {
				if ap.Put(*t) {
					return 0, write
				}
				return 0, log
			},
			halt: ap.Failed,
		}
		rx.run(p)
		ap.Fault()
		n := ap.Close(p)
		m.logForce(p, frag.Node)
		return n, doneMsg{op: opID, produced: n}
	})
}

// spawnCollector starts a lightweight sink on a node (typically the host)
// that counts result tuples instead of storing them — used for single-tuple
// selects returned to the user. It obeys the same close protocol as a store
// operator, but its start is not charged to the scheduler.
func spawnCollector(m *Machine, from *sim.Proc, opID string, node *nose.Node, in *nose.Port, sched *nose.Port) {
	m.spawnOp(from, opSpec{op: opID, class: "collect", node: node, in: in, sched: sched, uncharged: true}, func(p *sim.Proc) (int, any) {
		rx := streamIn{port: in, want: streamStore, expect: -1, node: node, instr: m.Prm.Engine.InstrPerTupleStore}
		rx.run(p)
		return rx.tuples, doneMsg{op: opID, produced: rx.tuples}
	})
}
