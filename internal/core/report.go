package core

import (
	"fmt"
	"io"

	"gamma/internal/disk"
	"gamma/internal/nose"
	"gamma/internal/sim"
)

// Counters is a snapshot of the machine's cumulative counters. Sub turns two
// snapshots into the machine's activity between them, which is how a query's
// Result, a workload's WorkloadResult and the utilization report all account
// for which resource bound a run (the disk-, CPU- and NIC-bound regimes of
// §5.2 and §6.2).
type Counters struct {
	Clock sim.Time // the snapshot's instant; in a delta, the window's length
	Net   nose.Stats
	// Buffer-pool hits and misses over every disk node's store.
	PoolHits, PoolMisses int64
	// SharedScanned counts pages physically read by shared-scan cursors,
	// SharedDelivered the page deliveries fanned out to riders; both stay
	// zero with sharing off.
	SharedScanned, SharedDelivered int64
	// The healing manager's site-down detections, backup-to-primary
	// promotions and completed fragment rebuilds; zero with healing off.
	Detections, Promotions, Rebuilds int
	// Nodes holds every node's counters, indexed by node id.
	Nodes []NodeCounters
	Ring  sim.Dur // token-ring transit time: accounting only, the ring is pure latency (§5.2.1)
}

// NodeCounters is one node's busy time by resource, plus its drive's access
// mix. Drive and Access stay zero on a node without a drive.
type NodeCounters struct {
	Role            string // host, scheduler, recovery, disk or diskless
	HasDrive        bool
	CPU, NIC, Drive sim.Dur
	Access          disk.Stats
}

// Counters snapshots the machine's cumulative counters. (Machine.Snapshot,
// in snapshot.go, captures the full machine image instead.)
func (m *Machine) Counters() Counters {
	c := Counters{Clock: m.Sim.Now(), Net: m.Net.Stats(), Ring: m.Net.RingBusy()}
	c.PoolHits, c.PoolMisses = m.PoolStats()
	if m.scans != nil {
		c.SharedScanned, c.SharedDelivered = m.scans.pagesScanned, m.scans.pagesDelivered
	}
	if h := m.healer; h != nil {
		c.Detections, c.Promotions, c.Rebuilds = h.detections, h.promotions, h.rebuilds
	}
	nodes := m.Net.Nodes()
	c.Nodes = make([]NodeCounters, len(nodes))
	for i, nd := range nodes {
		n := &c.Nodes[i]
		switch {
		case nd == m.Host:
			n.Role = "host"
		case nd == m.Sched:
			n.Role = "scheduler"
		case m.rec != nil && nd == m.rec.Server:
			n.Role = "recovery"
		case nd.Drive != nil:
			n.Role = "disk"
		default:
			n.Role = "diskless"
		}
		n.CPU, _, _ = nd.CPU.Stats()
		n.NIC, _, _ = nd.NIC.Stats()
		if nd.Drive != nil {
			n.HasDrive = true
			n.Drive, _, _ = nd.Drive.Resource().Stats()
			n.Access = nd.Drive.Stats()
		}
	}
	return c
}

// Sub returns the activity from snapshot was to c: every counter's
// difference, with Clock the window's length. A node attached after was
// counts from zero.
func (c Counters) Sub(was Counters) Counters {
	d := c
	d.Clock -= was.Clock
	d.Net.DataPackets -= was.Net.DataPackets
	d.Net.LocalMsgs -= was.Net.LocalMsgs
	d.Net.CtlMsgs -= was.Net.CtlMsgs
	d.Net.RingBytes -= was.Net.RingBytes
	d.PoolHits -= was.PoolHits
	d.PoolMisses -= was.PoolMisses
	d.SharedScanned -= was.SharedScanned
	d.SharedDelivered -= was.SharedDelivered
	d.Detections -= was.Detections
	d.Promotions -= was.Promotions
	d.Rebuilds -= was.Rebuilds
	d.Nodes = make([]NodeCounters, len(c.Nodes))
	for i, n := range c.Nodes {
		if i < len(was.Nodes) {
			w := was.Nodes[i]
			n.CPU -= w.CPU
			n.NIC -= w.NIC
			n.Drive -= w.Drive
			n.Access.SeqReads -= w.Access.SeqReads
			n.Access.RandReads -= w.Access.RandReads
			n.Access.SeqWrites -= w.Access.SeqWrites
			n.Access.RandWrites -= w.Access.RandWrites
			n.Access.BytesRead -= w.Access.BytesRead
			n.Access.BytesWritten -= w.Access.BytesWritten
		}
		d.Nodes[i] = n
	}
	d.Ring -= was.Ring
	return d
}

// SharedPagesSaved is the number of physical page reads scan sharing
// avoided.
func (c Counters) SharedPagesSaved() int64 { return c.SharedDelivered - c.SharedScanned }

// CPUUtil is the mean utilization of the disk and diskless processors' CPUs
// over window (0 for an empty window).
func (c Counters) CPUUtil(window sim.Dur) float64 {
	return c.meanBusy(window, func(n NodeCounters) (sim.Dur, bool) {
		return n.CPU, n.Role == "disk" || n.Role == "diskless"
	})
}

// DiskUtil is the mean utilization of the disk processors' drives over
// window (0 for an empty window).
func (c Counters) DiskUtil(window sim.Dur) float64 {
	return c.meanBusy(window, func(n NodeCounters) (sim.Dur, bool) { return n.Drive, n.Role == "disk" })
}

func (c Counters) meanBusy(window sim.Dur, of func(NodeCounters) (sim.Dur, bool)) float64 {
	var busy sim.Dur
	count := 0
	for _, n := range c.Nodes {
		if b, ok := of(n); ok {
			busy += b
			count++
		}
	}
	if window <= 0 || count == 0 {
		return 0
	}
	return busy.Seconds() / (window.Seconds() * float64(count))
}

// WriteUtilization reports each resource's busy time and utilization since
// the snapshot, plus per-drive access mixes — enough to see which resource
// bound a query (the disk-bound/CPU-bound/NIC-bound transitions of §5-§6).
func (m *Machine) WriteUtilization(w io.Writer, since Counters) {
	d := m.Counters().Sub(since)
	if d.Clock <= 0 {
		fmt.Fprintln(w, "utilization: empty window")
		return
	}
	util := func(b sim.Dur) string {
		return fmt.Sprintf("%6.1f%%", 100*float64(b)/float64(d.Clock))
	}
	fmt.Fprintf(w, "window: %.3fs simulated\n", d.Clock.Seconds())
	fmt.Fprintf(w, "%-4s %-10s %-18s %-18s %-18s %s\n", "node", "role", "cpu", "nic", "drive", "drive access mix")
	for id, n := range d.Nodes {
		driveCol := "        -"
		mix := ""
		if n.HasDrive {
			driveCol = fmt.Sprintf("%8.3fs %s", n.Drive.Seconds(), util(n.Drive))
			mix = fmt.Sprintf("seqR=%d randR=%d seqW=%d randW=%d",
				n.Access.SeqReads, n.Access.RandReads, n.Access.SeqWrites, n.Access.RandWrites)
		}
		fmt.Fprintf(w, "%-4d %-10s %8.3fs %s %8.3fs %s %-18s %s\n",
			id, n.Role,
			n.CPU.Seconds(), util(n.CPU),
			n.NIC.Seconds(), util(n.NIC),
			driveCol, mix)
	}
	fmt.Fprintf(w, "ring %-10s %8.3fs %s\n", "", d.Ring.Seconds(), util(d.Ring))
}
