package core

import (
	"gamma/internal/nose"
	"gamma/internal/sim"
)

// Recovery implements the log-record collection §8 announces as future work:
// "we intend on implementing a recovery server that will collect log records
// from each processor". When enabled, every operator that mutates permanent
// data ships log records to a dedicated recovery-server processor, which
// appends them to a sequential log volume.
//
// The paper identifies Gamma's missing recovery as one of its two "most
// glaring deficiencies" and notes that its update numbers (Table 3) include
// only partial recovery; the `recovery` benchmark quantifies what the full
// machinery would have cost.
type Recovery struct {
	Server *nose.Node
	// buffered bytes per source node, flushed in log-page units.
	pending map[int]int
	logPage int
	// Stats.
	Records  int64
	LogBytes int64
	// Flushes counts every log page shipped to the server; Forces counts
	// the subset that were synchronous commit-point flushes.
	Flushes int64
	Forces  int64
}

// logRecordHeader is the per-record framing overhead.
const logRecordHeader = 16

// EnableRecovery attaches a recovery server on its own processor (with a
// drive for the log volume) and returns it. Idempotent.
func (m *Machine) EnableRecovery() *Recovery {
	if m.rec != nil {
		return m.rec
	}
	server := m.Net.AddNode(true, m.Prm.Disk)
	m.rec = &Recovery{Server: server, pending: map[int]int{}}
	return m.rec
}

// logRecord ships one log record of the given payload size from node to the
// recovery server (see logShip), in p.
func (m *Machine) logRecord(p *sim.Proc, node *nose.Node, payload int) {
	if log := m.logShip(node, payload); log != nil {
		p.Steps(log)
	}
}

// logShip returns the stage form of logging a record of the given payload
// size from node, a sub-itinerary (sim.Proc.Steps), or nil without a
// recovery server. Records are buffered into page-sized batches per source;
// each call notes one, and a record that fills its page ships the batch: a
// network transfer, then the server's CPU and a sequential write on the log
// volume, both charged asynchronously.
func (m *Machine) logShip(node *nose.Node, payload int) func() (sim.Time, bool) {
	r := m.rec
	if r == nil {
		return nil
	}
	var bulk nose.Bulk
	shipping := false
	return func() (sim.Time, bool) {
		if !shipping {
			size := payload + logRecordHeader
			r.Records++
			r.LogBytes += int64(size)
			if r.pending[node.ID] += size; r.pending[node.ID] < m.Prm.PageBytes {
				return 0, false
			}
			r.pending[node.ID] = 0
			r.Flushes++
			bulk.Start(node, r.Server, m.Prm.PageBytes)
			shipping = true
		}
		if at, more := bulk.Step(); more {
			return at, true
		}
		shipping = false
		r.Server.CPU.UseAsync(m.Prm.CPU.Time(m.Prm.Engine.InstrPerPageIO))
		r.Server.Drive.WriteAsync(-7, r.logPage, m.Prm.PageBytes)
		r.logPage++
		return 0, false
	}
}

// logForce flushes any buffered records from node (commit point): the
// committing operator waits for the transfer, the server's CPU and the log
// write.
func (m *Machine) logForce(p *sim.Proc, node *nose.Node) {
	r := m.rec
	if r == nil || r.pending[node.ID] == 0 {
		return
	}
	r.pending[node.ID] = 0
	r.Flushes++
	m.Net.TransferBulk(p, node, r.Server, m.Prm.PageBytes)
	r.Forces++
	r.Server.UseCPU(p, m.Prm.Engine.InstrPerPageIO)
	r.Server.Drive.Write(p, -7, r.logPage, m.Prm.PageBytes)
	r.logPage++
}
