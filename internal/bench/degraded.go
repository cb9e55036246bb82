package bench

import (
	"gamma/internal/fault"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// newGammaMirrored is newGamma with chained-declustered backups, the
// configuration the degraded-mode experiment runs in every column so the
// fault-free baseline carries the same storage layout. The three fault
// conditions of each row attach the same cached relation images: crashes and
// failover are toggles on the built machine, not part of its storage.
func newGammaMirrored(o Options, nDisk, nDiskless, n int, seed uint64, extras ...relSpec) *gammaSetup {
	m := o.gammaMachine(nDisk, nDiskless, true, append(gammaRels(n, seed), extras...))
	return setupFrom(m)
}

// runDegraded measures the Table 1 selection variants and joinAselB on a
// mirrored 8+8 machine in three conditions: fault-free, with one disk node
// already down, and with that node crashing halfway through the query. The
// paper's Gamma used chained declustering for exactly this availability
// argument; the columns quantify its mid-query cost.
func runDegraded(o Options) *Table {
	n := o.Sizes[0]
	const nDisk, nDiskless, crashSite = 8, 8, 1
	t := &Table{
		Title:   "Degraded-mode execution (mirrored, 8 disk + 8 diskless processors)",
		Unit:    "seconds",
		Columns: []string{"fault-free", "node down", "mid-query crash"},
	}

	type rowSpec struct {
		label  string
		extras []relSpec
		run    func(g *gammaSetup, n int) float64
	}
	var rows []rowSpec
	for _, r := range table1Rows {
		rows = append(rows, rowSpec{r.label, nil, func(g *gammaSetup, n int) float64 { return g.selectSecs(r.gamma(g, n)) }})
	}
	rows = append(rows, rowSpec{"joinAselB (10% selections)", []relSpec{heapRel("B", n, 8)}, func(g *gammaSetup, n int) float64 {
		return g.joinRun(joinAselB(g, n, rel.Unique2, ampleJoinMemory)).Elapsed.Seconds()
	}})

	// Rows fan out; within a row the three conditions stay serial because
	// the crash time is derived from the fault-free response time.
	t.Rows = parMap(o, len(rows), func(i int) Row {
		r := rows[i]
		// Fault-free, failover machinery armed so its overhead is in the
		// baseline.
		g := newGammaMirrored(o, nDisk, nDiskless, n, 1, r.extras...)
		g.m.EnableFailover(0)
		ff := r.run(g, n)

		// One node already down before the query starts: every scan of its
		// fragment runs from the chained-declustered backup.
		g = newGammaMirrored(o, nDisk, nDiskless, n, 1, r.extras...)
		g.m.EnableFailover(0)
		g.m.CrashDisk(crashSite)
		down := r.run(g, n)

		// The same node crashes halfway through the fault-free response
		// time: detection, abort, and a full retry are all on the clock.
		g = newGammaMirrored(o, nDisk, nDiskless, n, 1, r.extras...)
		fault.Arm(g.m, fault.Schedule{Injections: []fault.Injection{
			fault.Crash(g.m.Sim.Now()+sim.Time(ff/2*float64(sim.Second)), crashSite),
		}})
		crash := r.run(g, n)

		return Row{Label: r.label, Cells: []Cell{
			{Measured: ff}, {Measured: down}, {Measured: crash},
		}}
	})
	t.Notes = append(t.Notes,
		"All columns run with chained-declustered backups loaded (mirrored machine).",
		"node down: disk site 1 crashed before the query; scans read its backup fragment.",
		"mid-query crash: site 1 crashes at half the fault-free response time; the",
		"scheduler detects the dead operators, aborts, and replays on the survivors.")
	return t
}
