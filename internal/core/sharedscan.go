package core

import (
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wiss"
)

// This file implements SharedDB-style scan sharing (Giannikis et al., VLDB
// 2012) for heap selections. When several in-flight queries scan the same
// fragment, one circular cursor (wiss.WrapScanner) reads each page once and
// fans it to every attached query's predicate/split pipeline. A late
// arrival attaches at the cursor's current position and detaches after a
// full revolution, so it sees every page exactly once — just not starting
// at page 0. Each rider's pages go through its own page pipeline
// (pageSelect), so per-query CPU costs (predicate evaluation, split-table
// routing) are charged exactly as a private scan would; only the physical
// page reads are amortized.
//
// Cursor duty follows the paper's self-scheduling operator style: the first
// attacher drives the cursor from its own operator process; when it
// completes its revolution it hands the cursor to the longest-waiting
// rider, so a finished query is never held hostage by later arrivals.

// scanKey identifies one shared cursor: a heap file on a node.
type scanKey struct {
	node int
	file int
}

// scanHub is the machine-wide scan-sharing registry (see EnableSharedScans).
type scanHub struct {
	m      *Machine
	active map[scanKey]*sharedScan

	// Cumulative counters: physical page reads by shared cursors, and page
	// deliveries to riders. delivered - scanned = page reads saved.
	pagesScanned   int64
	pagesDelivered int64
}

// sharedConsumer is one selection operator attached to a shared cursor.
type sharedConsumer struct {
	op   string
	site int
	frag *Fragment
	sel  pageSelect // the rider's page pipeline; sel.n counts its matches

	// wq blocks the rider's operator process while another consumer holds
	// the cursor; nil for the consumer that created the scan.
	wq *sim.WaitQ

	seen      int   // pages delivered so far (done at seen == npages)
	scanned   int64 // pages this consumer read while holding the cursor
	delivered int64 // pages this consumer received (== seen, wider type)
	done      bool
	cursor    bool // this consumer currently drives the cursor
}

// sharedScan is one live circular scan over a fragment's heap file.
type sharedScan struct {
	hub       *scanHub
	key       scanKey
	ws        *wiss.WrapScanner
	npages    int
	consumers []*sharedConsumer
	// failed holds the panic value that tore the scan down (a drive
	// failure, typically); parked riders rethrow it in their own processes
	// so each operator reports its own failure to its scheduler.
	failed any

	// The holder's turn in stage form (see lead): the consumers the page in
	// hand goes to, the one it is at, and whether a read is under way.
	p       *sim.Proc
	self    *sharedConsumer
	snap    []*sharedConsumer
	at      int
	reading bool
}

// scanShared runs one query's heap selection of frag through the sharing
// layer: attach to the fragment's live cursor (or start one), receive every
// page exactly once, detach, and return the match count. Semantically
// identical to heapSelect.
func (h *scanHub) scanShared(p *sim.Proc, frag *Fragment, pred rel.Pred, split *splitTable, op string, site int) int {
	f := frag.File
	npages := f.Pages()
	if npages == 0 {
		return 0
	}
	key := scanKey{node: frag.Node.ID, file: f.ID}
	s := h.active[key]
	if s != nil && s.npages != npages {
		// The file grew or shrank under the live cursor (concurrent
		// append); fall back to a private pass rather than share a stale
		// page count.
		return heapSelect(p, h.m, frag, pred, split)
	}
	c := &sharedConsumer{op: op, site: site, frag: frag, sel: newPageSelect(h.m, frag.Node, pred, split)}
	if s == nil {
		s = &sharedScan{hub: h, key: key, ws: f.NewWrapScanner(0), npages: npages}
		h.active[key] = s
		s.consumers = append(s.consumers, c)
		c.cursor = true
		h.emit(p, "attach", c, 0)
		s.lead(p, c)
	} else {
		c.wq = h.m.Sim.NewWaitQ("sharedscan")
		s.consumers = append(s.consumers, c)
		h.emit(p, "attach", c, s.ws.NextIdx())
		for !c.done && !c.cursor {
			c.wq.Park(p)
			if s.failed != nil {
				panic(s.failed)
			}
		}
		if !c.done {
			s.lead(p, c)
		}
	}
	h.emit(p, "detach", c, 0)
	return c.sel.n
}

// lead drives the cursor from self's operator process until self has seen
// the whole file, delivering each page to every attached consumer, then
// hands the cursor to the longest-waiting rider (or retires it).
func (s *sharedScan) lead(p *sim.Proc, self *sharedConsumer) {
	defer s.recoverCursor(self)
	s.p, s.self, s.snap, s.at = p, self, s.snap[:0], 0
	p.Steps(s.step)
	s.ws.Fault()
	if len(s.consumers) > 0 {
		next := s.consumers[0]
		next.cursor = true
		next.wq.WakeOne()
	} else {
		delete(s.hub.active, s.key)
	}
}

// step is the holder's turn as an itinerary: read the cursor's next page, run
// it through the page pipeline of every consumer attached when the read was
// issued, until the holder has seen the whole file or a read found its drive
// failed (lead makes that read).
func (s *sharedScan) step() (sim.Time, bool) {
	h := s.hub
	for {
		if s.reading {
			if at, more := s.ws.Step(); more {
				return at, true
			}
			s.reading = false
			if s.ws.Page() == nil {
				return 0, false
			}
			s.self.scanned++
			h.pagesScanned++
		}
		if s.at < len(s.snap) {
			c := s.snap[s.at] // attached, so not done
			if c.sel.pg == nil {
				c.sel.begin(s.p, s.ws.Page())
			}
			if at, more := c.sel.step(); more {
				return at, true
			}
			c.sel.pg = nil
			s.at++
			c.seen++
			c.delivered++
			h.pagesDelivered++
			if c.seen == s.npages {
				c.done = true
				s.remove(c)
				if c != s.self {
					c.wq.WakeOne()
				}
			}
			continue
		}
		if s.self.done {
			return 0, false
		}
		// Snapshot before the read: consumers attaching while the page is in
		// flight start at the next page (the cursor position advances as the
		// read is issued), so they are excluded here.
		s.snap, s.at = append(s.snap[:0], s.consumers...), 0
		prefetch := false
		for _, c := range s.consumers {
			if c.seen+1 < s.npages {
				prefetch = true
				break
			}
		}
		s.ws.Start(prefetch)
		s.reading = true
	}
}

// recoverCursor tears the scan down when the cursor holder panics (drive
// failure mid-read): parked riders are woken to rethrow the failure in
// their own processes, and the panic is propagated to the holder's own
// failure handler. A holder killed by a node crash re-panics its kill
// sentinel here; its riders live on the same node and were already killed
// (and dequeued), so the wakeups below are no-ops.
func (s *sharedScan) recoverCursor(self *sharedConsumer) {
	r := recover()
	if r == nil {
		return
	}
	s.failed = r
	delete(s.hub.active, s.key)
	for _, c := range s.consumers {
		if c != self && !c.done && c.wq != nil {
			c.wq.WakeOne()
		}
	}
	panic(r)
}

// remove detaches a finished consumer, preserving attach order (the
// longest-waiting rider inherits the cursor).
func (s *sharedScan) remove(c *sharedConsumer) {
	for i, x := range s.consumers {
		if x == c {
			s.consumers = append(s.consumers[:i], s.consumers[i+1:]...)
			return
		}
	}
}

// emit records a shared-scan attach/detach trace event. On detach N is the
// rider's saved page reads: pages it received minus pages it read itself.
func (h *scanHub) emit(p *sim.Proc, class string, c *sharedConsumer, page int) {
	e := trace.Event{
		At:    int64(p.Now()),
		Kind:  trace.KindSharedScan,
		Class: class,
		Op:    c.op,
		Node:  c.frag.Node.ID,
		Site:  c.site,
		File:  c.frag.File.ID,
	}
	if class == "attach" {
		e.Page = page
	} else {
		e.N = int(c.delivered - c.scanned)
	}
	p.Emit(e)
}
