package bench

import (
	"fmt"

	"gamma/internal/core"
	"gamma/internal/fault"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// The availability experiment: a closed-loop selection workload runs on a
// mirrored machine while a seeded campaign of crashes, drive failures, and
// transient outages plays against it, with the healing manager detecting
// each fault, promoting backups, and re-replicating lost fragments in the
// background. Reported per cluster size: steady throughput, the worst
// 5-second throughput window during the campaign (the dip), how many queries
// finished clean / degraded / failed, and the mean and max MTTR — fault
// injection to full redundancy restored.
//
// The whole report is a pure function of the campaign seed.
const (
	avDefaultSeed = 7
	avTerminals   = 8
	avRamp        = 5 * sim.Second
	avMTTF        = 8 * sim.Second
	avMeanOutage  = 4 * sim.Second
	avDipWindow   = 5 * sim.Second
	avHealSlack   = 60 * sim.Second
)

// avFaults picks the per-row campaign length: half the cluster, clamped so
// the small row isn't annihilated (permanent faults arrive at ~2/5 of the
// mix) and the large rows still see a sustained ≥10-fault campaign.
func avFaults(nDisk int) int {
	f := nDisk / 2
	if f < 4 {
		f = 4
	}
	if f > 12 {
		f = 12
	}
	return f
}

// avPoint is one row's measurements.
type avPoint struct {
	wl       core.WorkloadResult
	episodes []core.HealEpisode
	campaign []fault.Injection
	dip      float64 // worst 5s-window throughput during the campaign
	end      float64 // throughput just after the campaign ends (recovery evidence)
}

// avWindowQPS returns completed-queries-per-second inside [from, from+w).
func avWindowQPS(completions []sim.Time, from sim.Time, w sim.Dur) float64 {
	n := 0
	for _, c := range completions {
		if c >= from && c < from+sim.Time(w) {
			n++
		}
	}
	return float64(n) / w.Seconds()
}

// avReads declares the two mirrored relations every cluster size holds.
func avReads(o Options) []genKey {
	return []genKey{{o.FigureTuples, 11}, {o.FigureTuples, 12}}
}

// avRun plays one campaign against one cluster size.
func avRun(o Options, nDisk int) avPoint {
	seed := o.CampaignSeed
	if seed == 0 {
		seed = avDefaultSeed
	}
	faults := avFaults(nDisk)
	n := o.FigureTuples
	// Range-partitioned on Unique1 so a 1% range selection is confined to
	// the one or two overlapping sites: queries are site-local, a fault
	// degrades the queries that touch the lost site instead of every query,
	// and initiation cost stays flat as the cluster grows. Indexed (clustered
	// on Unique1) so each query reads only the qualifying pages — light
	// queries make the fault dips sharp instead of drowning them in scan
	// time, and rebuilds must stream the index images too.
	specs := []relSpec{
		{name: "AvA", n: n, seed: 11, strategy: core.RangeUniform, partAttr: rel.Unique1, indexed: true},
		{name: "AvB", n: n, seed: 12, strategy: core.RangeUniform, partAttr: rel.Unique1, indexed: true},
	}
	m := o.gammaMachine(nDisk, 0, true, specs)
	rels := []*core.Relation{nil, nil}
	for i, name := range []string{"AvA", "AvB"} {
		r, _ := m.Relation(name)
		rels[i] = r
	}

	// MTTF is kept comfortably above the observed MTTR (a few seconds), as
	// in any plausible deployment: chained declustering loses data when both
	// chain members die inside one repair window, and a campaign tuned to
	// lose data would just measure the mix, not the healing.
	campaign := fault.Campaign(fault.CampaignSpec{
		Seed: seed, Sites: nDisk, MTTF: avMTTF, Start: avRamp + 2*sim.Second,
		Faults: faults, MeanOutage: avMeanOutage,
		CrashW: 1, DriveW: 1, OutageW: 4,
	})
	var campaignEnd sim.Time
	for _, in := range campaign {
		if end := in.At + sim.Time(in.Dur); end > campaignEnd {
			campaignEnd = end
		}
	}
	if err := fault.Arm(m, fault.Schedule{Injections: campaign}); err != nil {
		panic(err) // the campaign draws its sites from the machine
	}
	m.EnableHealing(core.HealConfig{Horizon: campaignEnd + avHealSlack})

	// Size the run so terminals keep issuing well past the campaign's end
	// (the post-campaign window is what shows recovery): 1% clustered-index
	// selections on the partitioning attribute, projected to the host.
	span := int32(n / 100)
	wl := m.RunWorkload(core.WorkloadSpec{
		Terminals:   avTerminals,
		PerTerminal: 30 * faults,
		Ramp:        avRamp,
		Seed:        seed,
		Make: func(term, q int, rng func() uint64) core.ConcurrentQuery {
			r := rels[rng()%2]
			lo := int32(rng() % uint64(n-int(span)))
			return core.ConcurrentQuery{Select: &core.SelectQuery{
				Scan:    core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique1, lo, lo+span-1), Path: core.PathClustered},
				ToHost:  true,
				Project: []rel.Attr{rel.Unique1},
			}}
		},
	})

	pt := avPoint{wl: wl, episodes: m.Healer().Episodes(), campaign: campaign}
	if len(wl.Completions) > 0 {
		// Dip: the worst window while faults are landing. Post: the window
		// right after the last fault clears, while every terminal is still
		// active — throughput back near steady state is the recovery
		// evidence (the tail after terminals drain would dilute it).
		pt.dip = -1
		for from := campaign[0].At; from+sim.Time(avDipWindow) <= campaignEnd+sim.Time(avDipWindow); from += sim.Time(sim.Second) {
			q := avWindowQPS(wl.Completions, from, avDipWindow)
			if pt.dip < 0 || q < pt.dip {
				pt.dip = q
			}
		}
		if pt.dip < 0 {
			pt.dip = wl.Throughput
		}
		pt.end = avWindowQPS(wl.Completions, campaignEnd+sim.Time(avDipWindow), avDipWindow)
	}
	return pt
}

// mttr summarizes the restored episodes: mean and max fault-to-redundancy
// time in seconds.
func mttr(episodes []core.HealEpisode) (mean, max float64) {
	var sum sim.Dur
	restored := 0
	for _, ep := range episodes {
		if ep.RestoredAt < 0 {
			continue
		}
		d := sim.Dur(ep.RestoredAt - ep.FaultAt)
		sum += d
		if s := d.Seconds(); s > max {
			max = s
		}
		restored++
	}
	if restored > 0 {
		mean = (sum / sim.Dur(restored)).Seconds()
	}
	return mean, max
}

func runAvailability(o Options) *Table {
	t := &Table{
		Title:   "Availability under a seeded fault campaign (mirrored, self-healing)",
		Unit:    "queries per simulated second; MTTR in seconds",
		Columns: []string{"q/s", "dip q/s", "post q/s", "clean", "degraded", "failed", "MTTR mean", "MTTR max", "promote", "rebuild"},
	}
	nDisks := []int{8, 32, 64}
	if o.FigureTuples <= 20000 {
		nDisks = []int{8, 32} // quick mode: skip the 64-node row
	}
	pts := parMap(o, len(nDisks), func(i int) avPoint { return avRun(o, nDisks[i]) })
	for i, pt := range pts {
		mean, max := mttr(pt.episodes)
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%d disk nodes", nDisks[i]),
			Cells: []Cell{
				{Measured: pt.wl.Throughput},
				{Measured: pt.dip},
				{Measured: pt.end},
				{Measured: float64(pt.wl.Clean)},
				{Measured: float64(pt.wl.Degraded)},
				{Measured: float64(pt.wl.Failed)},
				{Measured: mean},
				{Measured: max},
				{Measured: float64(pt.wl.Counters.Promotions)},
				{Measured: float64(pt.wl.Counters.Rebuilds)},
			},
		})
	}
	seed := o.CampaignSeed
	if seed == 0 {
		seed = avDefaultSeed
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("campaign seed %d; %d terminals of 1%% range selections (site-local) over two %d-tuple relations;",
			seed, avTerminals, o.FigureTuples),
		"faults are Poisson-spaced (MTTF 8 s) over crash / bad-drive / transient-outage modes;",
		"the healer promotes backups, re-replicates lost fragments with paced page copies, and",
		fmt.Sprintf("MTTR is fault injection to full redundancy restored. Campaign of the %d-node row:", nDisks[0]))
	for _, in := range pts[0].campaign {
		t.Notes = append(t.Notes, "  "+fault.FormatInjection(in))
	}
	return t
}
