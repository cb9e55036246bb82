package core

import (
	"fmt"

	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// AggFn is an aggregate function. §1 of the paper ran aggregate experiments
// but deferred the numbers to [DEWI88]; the operators are implemented here
// in full and benchmarked separately.
type AggFn int

const (
	Count AggFn = iota
	Sum
	Min
	Max
	Avg
)

func (f AggFn) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "avg"
	}
}

// AggQuery computes fn(attr) over the qualifying tuples of a relation,
// optionally grouped. Scalar aggregates are computed as local partials at
// each scan site and combined on one processor; grouped aggregates hash-
// partition tuples on the grouping attribute across the aggregate
// processors, each of which folds its groups and emits one result tuple per
// group.
type AggQuery struct {
	Scan    ScanSpec
	Fn      AggFn
	Attr    rel.Attr
	GroupBy *rel.Attr
	Mode    JoinMode // which processors run the aggregate operators
}

// AggResult is the outcome of an aggregate query. Its Result reports
// Elapsed, Counters, Err, Degraded and Attempts as for every other query class;
// Tuples counts the qualifying input tuples.
type AggResult struct {
	Result
	// Groups maps group value -> aggregate value; scalar queries use the
	// single key 0.
	Groups map[int32]int64
}

// aggState folds values.
type aggState struct {
	count int64
	sum   int64
	min   int64
	max   int64
}

func (a *aggState) add(v int64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.count++
	a.sum += v
}

func (a *aggState) merge(b *aggState) {
	if b.count == 0 {
		return
	}
	if a.count == 0 {
		*a = *b
		return
	}
	a.count += b.count
	a.sum += b.sum
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

func (a *aggState) value(fn AggFn) int64 {
	switch fn {
	case Count:
		return a.count
	case Sum:
		return a.sum
	case Min:
		return a.min
	case Max:
		return a.max
	default:
		if a.count == 0 {
			return 0
		}
		return a.sum / a.count
	}
}

// aggPartial carries partial aggregates: from a scan site to the scalar
// combiner, and from the combiner or a grouped-aggregate operator (op) to the
// scheduler.
type aggPartial struct {
	op     string
	groups map[int32]*aggState
	seen   int
}

// RunAgg executes an aggregate query.
func (m *Machine) RunAgg(q AggQuery) AggResult {
	var out AggResult
	m.runQuery(&out.Result, m.aggBody(q, &out))
	return out
}

// aggBody builds the scheduler program for an aggregate query.
func (m *Machine) aggBody(q AggQuery, out *AggResult) func(ib *inbox) {
	scan := m.resolveScan(q.Scan)
	return m.lifecycle(&out.Result, true, func(ib *inbox) error {
		aggNodes, err := m.JoinNodes(q.Mode)
		if err != nil {
			return err
		}
		frags, degraded, err := m.scanSites(scan)
		if err != nil {
			return err
		}
		out.Degraded = degraded
		var parts []aggPartial
		if q.GroupBy == nil {
			parts, err = m.scalarAgg(ib, q, scan, frags, aggNodes[0])
		} else {
			parts, err = m.groupedAgg(ib, q, scan, frags, aggNodes)
		}
		if err != nil {
			return err
		}
		out.Groups = map[int32]int64{}
		out.Tuples = 0
		for _, part := range parts {
			for g, st := range part.groups {
				out.Groups[g] = st.value(q.Fn)
			}
			out.Tuples += part.seen
		}
		return nil
	})
}

// scalarAgg: each scan site folds its fragment locally (aggregation is
// pushed below the split table) and sends one partial to the combiner, which
// reports the combined state.
func (m *Machine) scalarAgg(ib *inbox, q AggQuery, scan ScanSpec, frags []*Fragment, combiner *nose.Node) ([]aggPartial, error) {
	p, sched, tag := ib.p, ib.port, ib.tag()
	// The combiner is a tiny operator: it receives one data message per
	// scan site and folds the partials.
	combine := ib.track(&opGroup{op: "agg-combine" + tag, ports: []*nose.Port{combiner.NewPort("agg-combine")}})
	comboPort := combine.ports[0]
	nSites := len(frags)
	m.spawnOp(p, opSpec{op: combine.op, class: "agg-combine", node: combiner, in: comboPort, sched: sched}, func(cp *sim.Proc) (int, any) {
		total := &aggState{}
		seen := 0
		for i := 0; i < nSites; i++ {
			part := recvOp(cp, comboPort).(aggPartial)
			combiner.UseCPU(cp, m.Prm.Engine.InstrPerTupleAgg)
			total.merge(part.groups[0])
			seen += part.seen
		}
		return seen, aggPartial{op: combine.op, groups: map[int32]*aggState{0: total}, seen: seen}
	})
	scanOp := "agg-scan" + tag
	for si, frag := range frags {
		m.spawnOp(p, opSpec{op: scanOp, class: "agg-scan", site: si, node: frag.Node, sched: sched}, func(sp *sim.Proc) (int, any) {
			st := &aggState{}
			seen := scanFold(sp, m, frag, scan, func(t rel.Tuple) { st.add(int64(t.Get(q.Attr))) })
			conn := frag.Node.Dial(comboPort)
			conn.Send(sp, nose.Data, aggPartial{groups: map[int32]*aggState{0: st}, seen: seen}, m.Prm.TupleBytes)
			return seen, nil
		})
	}
	return collect(ib, ib.aggs, combine.op, 1)
}

// groupedAgg: scan sites split qualifying tuples by hash of the grouping
// attribute across the aggregate processors; each processor folds its groups
// and reports them.
func (m *Machine) groupedAgg(ib *inbox, q AggQuery, scan ScanSpec, frags []*Fragment, aggNodes []*nose.Node) ([]aggPartial, error) {
	p, sched, tag := ib.p, ib.port, ib.tag()
	nA := len(aggNodes)
	aggs := ib.track(&opGroup{op: "agg" + tag})
	for i, nd := range aggNodes {
		aggs.ports = append(aggs.ports, nd.NewPort(fmt.Sprintf("agg%d", i)))
	}
	groupAttr := *q.GroupBy
	nSites := len(frags)
	for ai, nd := range aggNodes {
		port := aggs.ports[ai]
		m.spawnOp(p, opSpec{op: aggs.op, class: "agg", site: ai, node: nd, in: port, sched: sched}, func(ap *sim.Proc) (int, any) {
			groups := map[int32]*aggState{}
			rx := streamIn{
				port: port, want: streamStore, expect: nSites, node: nd,
				instr: m.Prm.Engine.InstrPerTupleAgg,
				take: func(t *rel.Tuple) (int, func() (sim.Time, bool)) {
					g := t.Get(groupAttr)
					st := groups[g]
					if st == nil {
						st = &aggState{}
						groups[g] = st
					}
					st.add(int64(t.Get(q.Attr)))
					return 0, nil
				},
			}
			rx.run(ap)
			return rx.tuples, aggPartial{op: aggs.op, groups: groups, seen: rx.tuples}
		})
	}
	selOp := "agg-select" + tag
	for si, frag := range frags {
		spawnSelect(m, p, selOp, si, frag, scan.Pred, scan.Path, func() selectOutput {
			return selectOutput{stream: streamStore, ports: aggs.ports, route: HashRoute(groupAttr, LoadSeed, nA)}
		}, sched)
	}
	if _, err := collect(ib, ib.dones, selOp, nSites); err != nil {
		return nil, err
	}
	return collect(ib, ib.aggs, aggs.op, nA)
}

// scanFold runs an access path over a fragment, invoking fold for every
// qualifying tuple, and returns the match count. It is the aggregate
// pushdown path: no split table, no network.
func scanFold(p *sim.Proc, m *Machine, frag *Fragment, scan ScanSpec, fold func(rel.Tuple)) int {
	sink := &foldSink{fold: fold}
	split := newSplitTable(frag.Node, m.Prm, 0, nil, func(t *rel.Tuple) int { sink.fold(*t); sink.n++; return -1 })
	switch scan.Path {
	case PathHeap:
		heapSelect(p, m, frag, scan.Pred, split)
	case PathClustered:
		clusteredSelect(p, m, frag, scan.Pred, split)
	case PathNonClustered:
		nonClusteredSelect(p, m, frag, scan.Pred, split)
	default:
		panic("core: unresolved path in scanFold")
	}
	split.close(p) // no destinations: the routing CPU is all it charges
	return sink.n
}

type foldSink struct {
	fold func(rel.Tuple)
	n    int
}
