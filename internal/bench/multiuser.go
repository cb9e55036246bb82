package bench

import (
	"fmt"

	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// The multiuser throughput experiment: a closed-loop terminal mix of 1%
// heap selections spread over several relations, swept against the
// multiprogramming level, with scan sharing off (every query drives its own
// cursor) and on (concurrent scans of a fragment ride one cursor). Two extra
// rows re-run the MPL-8 point with one terminal issuing joinABprime-style
// joins, Local vs Remote, to show sharing composes with operator placement.
//
// The mix is deliberately pool-hostile: muRels relations at twice the
// figure-sweep cardinality mean any one fragment dwarfs the 64-frame buffer
// pool and concurrent private scans rarely pair up on a file, so the drives
// thrash in random positioning — the regime where one cursor per fragment
// pays off. Ramped arrivals keep terminals phase-shifted, as real ones are.
const (
	muRels  = 4
	muDisks = 4
	muRamp  = 20 * sim.Second
)

// muRow is one sweep point of the multiuser experiment.
type muRow struct {
	label string
	mpl   int
	joins bool
	mode  core.JoinMode
}

// muReads declares the muRels relations and the join rows' MuBprime.
func muReads(o Options) []read {
	tuples := 2 * o.FigureTuples
	out := []genKey{{tuples / 10, 7}}
	for i := range muRels {
		out = append(out, genKey{tuples, uint64(11 + i)})
	}
	return loads(out...)
}

// muRun executes one closed-loop run and returns its workload result.
func muRun(o Options, spec muRow, shared bool) core.WorkloadResult {
	nDiskless := 0
	if spec.joins {
		// Join rows need diskless processors for Remote placement; the
		// selection-only rows keep the proven 4-disk configuration.
		nDiskless = muDisks
	}
	tuples := 2 * o.FigureTuples
	specs := make([]relSpec, muRels)
	for i := range specs {
		specs[i] = relSpec{name: fmt.Sprintf("Mu%c", 'A'+i), n: tuples,
			seed: uint64(11 + i), strategy: core.RoundRobin}
	}
	if spec.joins {
		specs = append(specs, relSpec{name: "MuBprime", n: tuples / 10,
			seed: 7, strategy: core.RoundRobin})
	}
	m := o.gammaMachine(muDisks, nDiskless, specs)
	rels := make([]*core.Relation, muRels)
	for i := range rels {
		r, _ := m.Relation(fmt.Sprintf("Mu%c", 'A'+i))
		rels[i] = r
	}
	var bp *core.Relation
	if spec.joins {
		bp, _ = m.Relation("MuBprime")
	}
	if shared {
		m.EnableSharedScans()
	}
	span := int32(tuples / 100)
	sel := func(rng func() uint64) core.ConcurrentQuery {
		r := rels[rng()%uint64(muRels)]
		lo := int32(rng() % uint64(tuples-int(span)))
		return core.ConcurrentQuery{Select: &core.SelectQuery{
			Scan:    core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, lo, lo+span-1), Path: core.PathHeap},
			ToHost:  true,
			Project: []rel.Attr{rel.Unique1},
		}}
	}
	return m.RunWorkload(core.WorkloadSpec{
		Terminals:   spec.mpl,
		PerTerminal: 2,
		Ramp:        muRamp,
		Seed:        42,
		Make: func(term, q int, rng func() uint64) core.ConcurrentQuery {
			if spec.joins && term == 0 {
				return core.ConcurrentQuery{Join: &core.JoinQuery{
					Build: core.ScanSpec{Rel: bp, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
					Probe: core.ScanSpec{Rel: rels[0], Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
					Mode: spec.mode, MemPerJoinBytes: ampleJoinMemory,
				}}
			}
			return sel(rng)
		},
	})
}

func runMultiuser(o Options) *Table {
	t := &Table{
		Title:   "Closed-loop throughput vs multiprogramming level: private vs shared scans",
		Unit:    "queries per simulated second (utilizations of the shared run)",
		Columns: []string{"private q/s", "shared q/s", "speedup", "shared p95 (s)", "disk util", "cpu util"},
	}
	rows := []muRow{
		{label: "MPL 1", mpl: 1},
		{label: "MPL 2", mpl: 2},
		{label: "MPL 4", mpl: 4},
		{label: "MPL 8", mpl: 8},
		{label: "MPL 16", mpl: 16},
		{label: "MPL 32", mpl: 32},
		{label: "MPL 8 + joins (Local)", mpl: 8, joins: true, mode: core.Local},
		{label: "MPL 8 + joins (Remote)", mpl: 8, joins: true, mode: core.Remote},
	}
	t.Rows = parMap(o, len(rows), func(i int) Row {
		spec := rows[i]
		priv := muRun(o, spec, false)
		shrd := muRun(o, spec, true)
		speedup := 0.0
		if priv.Throughput > 0 {
			speedup = shrd.Throughput / priv.Throughput
		}
		return Row{Label: spec.label, Cells: []Cell{
			{Measured: priv.Throughput},
			{Measured: shrd.Throughput},
			{Measured: speedup},
			{Measured: shrd.P95Response.Seconds()},
			{Measured: shrd.Counters.DiskUtil(shrd.Elapsed)},
			{Measured: shrd.Counters.CPUUtil(shrd.Elapsed)},
		}}
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d heap relations of %d tuples each, round-robin over %d disk processors;",
			muRels, 2*o.FigureTuples, muDisks),
		"each terminal issues two 1% selections (join rows: terminal 0 issues joinABprime instead).",
		"Expected shape: identical at MPL 1; past MPL 4 private scans thrash the buffer pool while",
		"shared cursors bound page reads to one revolution per fragment, so throughput diverges.")
	return t
}
