package nose

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gamma/internal/disk"
	"gamma/internal/sim"
)

// Counters is a snapshot of a machine's node-level counters: the network's,
// the ring's and every node's busy time by resource. Sub turns two snapshots
// into the machine's activity between them, which is how both machines
// account for which resource bound a query, a workload or a phase (the
// disk-, CPU- and NIC-bound regimes of §5.2 and §6.2).
type Counters struct {
	Clock sim.Time // the snapshot's instant; in a delta, the window's length
	Net   Stats
	// Nodes holds every node's counters, indexed by node id.
	Nodes []NodeCounters
	Ring  sim.Dur // token-ring transit time: accounting only, the ring is pure latency (§5.2.1)
}

// NodeCounters is one node's busy time by resource, plus its drive's access
// mix. Drive and Access stay zero on a node without a drive.
type NodeCounters struct {
	Role            string // the machine's name for it: host, scheduler, recovery, disk, diskless or amp
	HasDrive        bool
	CPU, NIC, Drive sim.Dur
	// Ctl is the part of CPU spent sending control messages and initiating
	// operators (§6.2.3's 7 ms per message).
	Ctl    sim.Dur
	Access disk.Stats
}

// Counters snapshots the network's counters, each node's Role named by role.
func (n *Network) Counters(role func(*Node) string) Counters {
	c := Counters{Clock: n.sim.Now(), Net: n.Stats(), Nodes: make([]NodeCounters, len(n.nodes))}
	for i, nd := range n.nodes {
		c.Ring += nd.ringBusy
		nc := &c.Nodes[i]
		nc.Role = role(nd)
		nc.CPU, _, _ = nd.CPU.Stats()
		nc.NIC, _, _ = nd.NIC.Stats()
		nc.Ctl = nd.ctlBusy
		if nd.Drive != nil {
			nc.HasDrive = true
			nc.Drive, _, _ = nd.Drive.Resource().Stats()
			nc.Access = nd.Drive.Stats()
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
	d.Nodes = make([]NodeCounters, len(c.Nodes))
	for i, n := range c.Nodes {
		if i < len(was.Nodes) {
			w := was.Nodes[i]
			n.CPU -= w.CPU
			n.NIC -= w.NIC
			n.Drive -= w.Drive
			n.Ctl -= w.Ctl
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

// ClassUtil is one resource class's share of a verdict's window.
type ClassUtil struct {
	Class string  // "disk", "nic", "cpu", "ring" or "ctl"
	Res   string  // the class's busiest instance, e.g. "disk3"
	Util  float64 // that instance's utilization of the window [0, 1]
	Busy  sim.Dur // busy time summed over every instance of the class
}

// Verdict is the bottleneck classification of a window, in the paper's
// §5.2/§6.2 sense: the binding class is the one whose busiest instance has
// the highest utilization. A query is "disk-bound" when a drive is the most
// saturated device, "cpu-bound" when a processor is, "nic-bound" when a
// network interface (Gamma's 4 Mbit/s Unibus path) is.
type Verdict struct {
	Window  sim.Dur     // the classified window's length
	Binding string      // class of the binding resource
	Res     string      // the binding resource itself, e.g. "nic9"
	Util    float64     // its utilization of the window
	Classes []ClassUtil // every class with activity, by descending Util
}

// verdictClasses lists the classes in tie-break order: at an exact
// utilization tie the physically scarcer resource binds. "ring" is the
// interconnect's transit time, one instance for the machine; "ctl" is each
// node's control-message time, which is also part of its cpu, so it ranks
// last and real hardware wins exact ties.
var verdictClasses = [...]string{"disk", "nic", "cpu", "ring", "ctl"}

// Verdict classifies the activity of c over c.Clock: for each class it finds
// the busiest instance (the lowest node id at an exact tie) and names the
// class whose busiest instance is the most saturated. On a query's result
// the window is the query's; a concurrent run is classified over its whole
// window, from the delta of two snapshots.
func (c Counters) Verdict() Verdict {
	v := Verdict{Window: c.Clock}
	if c.Clock <= 0 {
		return v
	}
	var classes [len(verdictClasses)]ClassUtil
	var busiest [len(verdictClasses)]int // node id of each class's Res
	add := func(k, node int, busy sim.Dur) {
		if busy <= 0 {
			return
		}
		cu := &classes[k]
		cu.Busy += busy
		if u := float64(busy) / float64(c.Clock); u > cu.Util {
			cu.Util, busiest[k] = u, node
		}
	}
	for id, n := range c.Nodes {
		add(0, id, n.Drive)
		add(1, id, n.NIC)
		add(2, id, n.CPU)
		add(4, id, n.Ctl)
	}
	add(3, 0, c.Ring)
	for k, cu := range classes {
		if cu.Busy == 0 {
			continue
		}
		cu.Class, cu.Res = verdictClasses[k], verdictClasses[k]
		if cu.Class != "ring" {
			cu.Res += fmt.Sprint(busiest[k])
		}
		v.Classes = append(v.Classes, cu)
	}
	sort.SliceStable(v.Classes, func(i, j int) bool { return v.Classes[i].Util > v.Classes[j].Util })
	if len(v.Classes) > 0 {
		v.Binding, v.Res, v.Util = v.Classes[0].Class, v.Classes[0].Res, v.Classes[0].Util
	}
	return v
}

// String renders the verdict in the §5/§6 style:
//
//	disk-bound (disk3 at 97.2%); cpu 41.0%, nic 12.4%, ring 0.6%
func (v Verdict) String() string {
	if v.Binding == "" {
		return "idle (no resource activity in window)"
	}
	s := fmt.Sprintf("%s-bound (%s at %.1f%%)", v.Binding, v.Res, 100*v.Util)
	var rest []string
	for _, cu := range v.Classes[1:] {
		rest = append(rest, fmt.Sprintf("%s %.1f%%", cu.Class, 100*cu.Util))
	}
	if len(rest) > 0 {
		s += "; " + strings.Join(rest, ", ")
	}
	return s
}

// WriteUtilization reports the delta c's busy time and utilization per
// resource, plus per-drive access mixes: enough to see which resource bound
// a query (the disk-bound/CPU-bound/NIC-bound transitions of §5-§6).
func (c Counters) WriteUtilization(w io.Writer) {
	if c.Clock <= 0 {
		fmt.Fprintln(w, "utilization: empty window")
		return
	}
	util := func(b sim.Dur) string {
		return fmt.Sprintf("%6.1f%%", 100*float64(b)/float64(c.Clock))
	}
	fmt.Fprintf(w, "window: %.3fs simulated\n", c.Clock.Seconds())
	fmt.Fprintf(w, "%-4s %-10s %-18s %-18s %-18s %s\n", "node", "role", "cpu", "nic", "drive", "drive access mix")
	for id, n := range c.Nodes {
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
	fmt.Fprintf(w, "ring %-10s %8.3fs %s\n", "", c.Ring.Seconds(), util(c.Ring))
}
