package core

import (
	"fmt"

	"gamma/internal/disk"
	"gamma/internal/nose"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// storeClose tells a store operator how many end-of-stream messages to
// expect in total; it terminates once that many have arrived. The count is
// sent by the scheduler when the number of producer phases is finally known
// (overflow rounds make it dynamic).
type storeClose struct {
	expectEOS int
}

// storeAbort tells a store operator (or collector) to abandon its partial
// output and acknowledge — mid-query failover teardown. The scheduler
// drops the partial result relation afterwards, so no flush is paid.
type storeAbort struct{}

// storeDone reports a finished store operator.
type storeDone struct {
	op     string
	site   int
	stored int
}

// spawnStore starts a store operator on a result fragment's node: it
// receives result tuples, assigns record ids, and writes pages to the local
// drive with write-behind (§2: "store operators at each disk site assume
// responsibility for writing the result tuples to disk").
func spawnStore(m *Machine, from *sim.Proc, opID string, site int, frag *Fragment, in *nose.Port, sched *nose.Port) {
	m.initiate(from, frag.Node, fmt.Sprintf("%s@%d", opID, frag.Node.ID), func(p *sim.Proc) {
		if in.Closed() {
			return // the node went down, taking the mailbox, after the scheduler set the operator up
		}
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(disk.FailedError); ok && !frag.Node.Failed() {
				nose.SendCtl(p, frag.Node, sched, opFailed{op: opID, node: frag.Node.ID})
				in.Close()
				return
			}
			panic(r)
		}()
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpStart, Op: opID, Node: frag.Node.ID, Site: site, Class: "store"})
		eng := m.Prm.Engine
		ap := frag.File.NewAppender()
		eos := 0
		expect := -1
		for expect < 0 || eos < expect {
			msg := in.Recv(p)
			switch pl := msg.Payload.(type) {
			case packet:
				frag.Node.UseCPU(p, eng.InstrPerTupleStore*len(pl.tuples))
				for _, t := range pl.tuples {
					ap.Append(p, t)
					m.logRecord(p, frag.Node, m.Prm.TupleBytes)
				}
				putTupleBuf(pl.tuples)
			case eosPayload:
				eos++
			case storeClose:
				expect = pl.expectEOS
			case storeAbort:
				nose.SendCtl(p, frag.Node, sched, abortedMsg{op: opID, site: site})
				in.Close()
				return
			default:
				panic(fmt.Sprintf("store: unexpected message %T", msg.Payload))
			}
		}
		n := ap.Close(p)
		m.logForce(p, frag.Node)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpDone, Op: opID, Node: frag.Node.ID, Site: site, N: n})
		nose.SendCtl(p, frag.Node, sched, storeDone{op: opID, site: site, stored: n})
		in.Close()
	})
}

// spawnCollector starts a lightweight sink on a node (typically the host)
// that gathers result tuples into memory instead of storing them — used for
// single-tuple selects and aggregate results returned to the user. It obeys
// the same close protocol as a store operator, but its start is not charged
// to the scheduler (Machine.start, not initiate).
func spawnCollector(m *Machine, from *sim.Proc, opID string, node *nose.Node, in *nose.Port, sched *nose.Port, sink func(n int)) {
	m.start(from, node, fmt.Sprintf("%s@%d", opID, node.ID), func(p *sim.Proc) {
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpStart, Op: opID, Node: node.ID, Site: 0, Class: "collect"})
		eng := m.Prm.Engine
		eos := 0
		expect := -1
		total := 0
		for expect < 0 || eos < expect {
			msg := in.Recv(p)
			switch pl := msg.Payload.(type) {
			case packet:
				node.UseCPU(p, eng.InstrPerTupleStore*len(pl.tuples))
				total += len(pl.tuples)
				putTupleBuf(pl.tuples)
			case eosPayload:
				eos++
			case storeClose:
				expect = pl.expectEOS
			case storeAbort:
				nose.SendCtl(p, node, sched, abortedMsg{op: opID, site: 0})
				in.Close()
				return
			default:
				panic(fmt.Sprintf("collector: unexpected message %T", msg.Payload))
			}
		}
		if sink != nil {
			sink(total)
		}
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpDone, Op: opID, Node: node.ID, Site: 0, N: total})
		nose.SendCtl(p, node, sched, storeDone{op: opID, site: 0, stored: total})
		in.Close()
	})
}
