package trace

import (
	"fmt"
	"sort"
	"strings"
)

// ClassUtil is one resource class's share of a diagnosis window.
type ClassUtil struct {
	Class string  // "disk", "cpu", "nic", "ring", ...
	Res   string  // the busiest individual resource of the class
	Util  float64 // that resource's utilization of the window [0, 1]
	Busy  int64   // total busy µs across ALL resources of the class
}

// Verdict is the output of the bottleneck classifier: which resource class
// bound the window, in the paper's §5.2/§6.2 sense — the resource whose
// busiest instance had the highest utilization. A query is "disk-bound"
// when a drive is the most saturated device, "CPU-bound" when a processor
// is, "NIC-bound" when a network interface (the 4 Mbit/s Unibus path) is.
type Verdict struct {
	From, To int64       // the analyzed window, µs
	Binding  string      // class of the binding resource
	Res      string      // the binding resource itself, e.g. "nic9"
	Util     float64     // its utilization of the window
	Classes  []ClassUtil // every class, sorted by descending Util
}

// classRank breaks exact utilization ties deterministically, preferring the
// physically scarcer resource (the paper's diagnosis order). "ctl" is the
// control-message pseudo-class (see Diagnose); it ranks last so real
// hardware wins exact ties.
var classRank = map[string]int{"disk": 0, "nic": 1, "cpu": 2, "ring": 3, "ctl": 4}

func rankOf(class string) int {
	if r, ok := classRank[class]; ok {
		return r
	}
	return len(classRank)
}

// Diagnose classifies the window [from, to]: for every resource class it
// finds the busiest instance, and names the class with the most saturated
// instance as the binding resource. With one query in flight this is the
// paper's per-query diagnosis; over a multiuser window it characterizes the
// mixed workload.
func (c *Collector) Diagnose(from, to int64) Verdict {
	v := Verdict{From: from, To: to}
	if to <= from {
		return v
	}
	window := float64(to - from)
	byClass := map[string]*ClassUtil{}
	var order []string
	for _, name := range c.resNames {
		busy := c.Busy(name, from, to)
		if busy == 0 {
			continue
		}
		class := ResClass(name)
		cu, ok := byClass[class]
		if !ok {
			cu = &ClassUtil{Class: class}
			byClass[class] = cu
			order = append(order, class)
		}
		cu.Busy += busy
		if u := float64(busy) / window; u > cu.Util {
			cu.Util, cu.Res = u, name
		}
	}
	// Control-message attribution: KindCtlMsg events carry their per-message
	// cost in Dur (§6.2.3's 7 ms). They are folded into a "ctl" pseudo-class
	// whose Util is the busiest *sender's* share of the window — the
	// scheduler initiating operators serially is exactly this number. The
	// time overlaps the sender's cpu class (control messages are charged to
	// the sending CPU), so ctl is an attribution, not extra hardware; it can
	// still legitimately win short queries, which is the paper's §6.2.3
	// observation that startup control traffic dominates small selections.
	if len(c.ctls) > 0 {
		perSender := map[int]int64{}
		var senders []int
		var total int64
		for _, e := range c.ctls {
			if e.At < from || e.At > to {
				continue
			}
			if _, ok := perSender[e.From]; !ok {
				senders = append(senders, e.From)
			}
			perSender[e.From] += e.Dur
			total += e.Dur
		}
		if total > 0 {
			sort.Ints(senders)
			cu := &ClassUtil{Class: "ctl", Busy: total}
			for _, nd := range senders {
				if u := float64(perSender[nd]) / window; u > cu.Util {
					cu.Util, cu.Res = u, fmt.Sprintf("ctl%d", nd)
				}
			}
			byClass["ctl"] = cu
			order = append(order, "ctl")
		}
	}
	for _, class := range order {
		v.Classes = append(v.Classes, *byClass[class])
	}
	sort.SliceStable(v.Classes, func(i, j int) bool {
		if v.Classes[i].Util != v.Classes[j].Util {
			return v.Classes[i].Util > v.Classes[j].Util
		}
		return rankOf(v.Classes[i].Class) < rankOf(v.Classes[j].Class)
	})
	if len(v.Classes) > 0 {
		v.Binding = v.Classes[0].Class
		v.Res = v.Classes[0].Res
		v.Util = v.Classes[0].Util
	}
	return v
}

// DiagnoseQuery classifies one collected query's span.
func (c *Collector) DiagnoseQuery(id string) (Verdict, bool) {
	q, ok := c.Query(id)
	if !ok || q.End < 0 {
		return Verdict{}, false
	}
	return c.Diagnose(q.Start, q.End), true
}

// DiagnoseSpan classifies one span (an operator phase, typically).
func (c *Collector) DiagnoseSpan(s Span) Verdict {
	return c.Diagnose(s.Start, s.End)
}

// String renders the verdict in the §5/§6 style:
//
//	disk-bound (disk3 at 97.2%); cpu 41.0%, nic 12.4%, ring 1.9%
func (v Verdict) String() string {
	if v.Binding == "" {
		return "idle (no resource activity in window)"
	}
	var rest []string
	for _, cu := range v.Classes[1:] {
		rest = append(rest, fmt.Sprintf("%s %.1f%%", cu.Class, 100*cu.Util))
	}
	s := fmt.Sprintf("%s-bound (%s at %.1f%%)", v.Binding, v.Res, 100*v.Util)
	if len(rest) > 0 {
		s += "; " + strings.Join(rest, ", ")
	}
	return s
}
