package core

import (
	"gamma/internal/nose"
)

// Counters is a snapshot of the machine's cumulative counters: the node-level
// ones both machines keep, with their Verdict, plus Gamma's own. Sub turns
// two snapshots into the machine's activity between them, which is how a
// query's Result and a workload's WorkloadResult account for their run.
type Counters struct {
	nose.Counters
	// Buffer-pool hits and misses over every disk node's store.
	PoolHits, PoolMisses int64
	// SharedScanned counts pages physically read by shared-scan cursors,
	// SharedDelivered the page deliveries fanned out to riders; both stay
	// zero with sharing off.
	SharedScanned, SharedDelivered int64
	// The healing manager's site-down detections, backup-to-primary
	// promotions and completed fragment rebuilds; zero with healing off.
	Detections, Promotions, Rebuilds int
}

// Counters snapshots the machine's cumulative counters. (Machine.Snapshot,
// in snapshot.go, captures the full machine image instead.)
func (m *Machine) Counters() Counters {
	c := Counters{Counters: m.Net.Counters(m.role)}
	c.PoolHits, c.PoolMisses = m.PoolStats()
	if m.scans != nil {
		c.SharedScanned, c.SharedDelivered = m.scans.pagesScanned, m.scans.pagesDelivered
	}
	if h := m.healer; h != nil {
		c.Detections, c.Promotions, c.Rebuilds = h.detections, h.promotions, h.rebuilds
	}
	return c
}

// role names a node's part in the machine for its counters.
func (m *Machine) role(nd *nose.Node) string {
	switch {
	case nd == m.Host:
		return "host"
	case nd == m.Sched:
		return "scheduler"
	case m.rec != nil && nd == m.rec.Server:
		return "recovery"
	case nd.Drive != nil:
		return "disk"
	}
	return "diskless"
}

// Sub returns the activity from snapshot was to c: every counter's
// difference, with Clock the window's length. A node attached after was
// counts from zero.
func (c Counters) Sub(was Counters) Counters {
	d := c
	d.Counters = c.Counters.Sub(was.Counters)
	d.PoolHits -= was.PoolHits
	d.PoolMisses -= was.PoolMisses
	d.SharedScanned -= was.SharedScanned
	d.SharedDelivered -= was.SharedDelivered
	d.Detections -= was.Detections
	d.Promotions -= was.Promotions
	d.Rebuilds -= was.Rebuilds
	return d
}
