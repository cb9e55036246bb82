package fault_test

// Tests of the self-healing layer: typed unavailability instead of panics
// when a fragment loses both chain members, outage rejoin semantics, heal
// correctness (a healed machine answers exactly like a fresh load, including
// through a snapshot/restore), sustained seeded campaigns with zero panics,
// and campaign determinism.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gamma/internal/core"
	"gamma/internal/fault"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// hashSite is where a Unique1 key lands on a hash-declustered relation.
func hashSite(key int32, nDisk int) int {
	return int(rel.Hash64(key, core.LoadSeed) % uint64(nDisk))
}

// TestBothChainMembersDown is the regression for the old
// "core: fragment ... unavailable" panic: killing a chained pair (a
// fragment's primary site and the next site holding its backup) must fail
// the affected query with a typed *core.ErrUnavailable — not crash the
// process — and leave the machine serving queries that avoid the dead
// fragment.
func TestBothChainMembersDown(t *testing.T) {
	const nDisk, nDiskless, n = 4, 2, 10000
	st := newSetup(nDisk, nDiskless, n)
	// Fragment 1's primary is on site 1 and its backup on site 2.
	st.arm(t, fault.Crash(sim.Time(1*sim.Millisecond), 1), fault.Crash(sim.Time(2*sim.Millisecond), 2))

	res := st.m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, n, 1), Path: core.PathHeap},
	})
	if res.Err == nil {
		t.Fatal("full scan over a doubly-failed fragment returned no error")
	}
	var ue *core.ErrUnavailable
	if !errors.As(res.Err, &ue) {
		t.Fatalf("res.Err = %v (%T), want *core.ErrUnavailable", res.Err, res.Err)
	}

	// The machine survives: an exact-match query routed to a live site
	// still answers, repeatedly.
	key := int32(-1)
	for k := int32(0); k < int32(n); k++ {
		if s := hashSite(k, nDisk); s != 1 && s != 2 {
			key = k
			break
		}
	}
	if key < 0 {
		t.Fatal("no key hashes to a live site")
	}
	for i := 0; i < 2; i++ {
		one := st.m.RunSelect(core.SelectQuery{
			Scan:   core.ScanSpec{Rel: st.heap, Pred: rel.Eq(rel.Unique1, key), Path: core.PathHeap},
			ToHost: true,
		})
		if one.Err != nil {
			t.Fatalf("single-site query after double failure: %v", one.Err)
		}
		if one.Tuples != 1 {
			t.Fatalf("single-site query returned %d tuples, want 1", one.Tuples)
		}
	}
}

// TestOutageRejoin covers fault.Outage's rejoin semantics with healing
// active: the node comes back cold and immediately eligible as a
// re-replication target. A crash during the outage must heal around the
// down node, and a crash after the rejoin must be able to land its rebuild
// on the rejoined node.
func TestOutageRejoin(t *testing.T) {
	const nDisk, nDiskless, n = 4, 2, 10000
	st := newSetup(nDisk, nDiskless, n)
	tr := st.m.EnableTrace()
	h := st.m.EnableHealing(core.HealConfig{Horizon: sim.Time(120 * sim.Second)})

	// Crash site 2 at 1 s; site 3 is in outage 1.2 s – 4.2 s, so the rebuild
	// of site 2's fragments must route around it (outage during heal). The
	// second crash lands at 40 s, after the first wave has fully restored
	// redundancy (rebuilds finish ~25 s): with every fragment doubly held
	// again, losing any single node is survivable, and the ring now routes
	// some of the new rebuilds onto the rejoined site 3.
	st.arm(t,
		fault.Crash(sim.Time(1*sim.Second), 2),
		fault.Outage(sim.Time(1200*sim.Millisecond), 3, 3*sim.Second),
		fault.Crash(sim.Time(40*sim.Second), 0))
	st.m.Sim.Run()

	episodes := h.Episodes()
	if len(episodes) != 3 {
		t.Fatalf("episodes = %d, want 3", len(episodes))
	}
	for _, ep := range episodes {
		if ep.DetectedAt < 0 || ep.RestoredAt < 0 {
			t.Errorf("episode %+v never detected/restored", ep)
		}
	}

	rejoinAt := sim.Time(-1)
	for _, e := range tr.Of(trace.KindHeal) {
		if e.Class == "rejoin" && e.Site == 3 {
			rejoinAt = sim.Time(e.At)
		}
	}
	if rejoinAt < 0 {
		t.Fatal("no rejoin event for site 3")
	}
	landedOnRejoined := false
	for _, e := range tr.Of(trace.KindRebuild) {
		if e.Class == "done" &&
			e.To == st.m.Disk[3].ID && sim.Time(e.At) > rejoinAt {
			landedOnRejoined = true
		}
	}
	if !landedOnRejoined {
		t.Error("no rebuild landed on the rejoined node")
	}

	// The healed directory still answers exactly.
	res := st.m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, n, 1), Path: core.PathHeap},
	})
	if res.Err != nil {
		t.Fatalf("post-heal selection failed: %v", res.Err)
	}
	diffMultisets(t, "post-heal 1%", expectSelect(n, pct(rel.Unique2, n, 1)), tuplesOf(t, st.m, res.ResultName))
}

// TestHealCorrectness: crash a node, let the healer promote and re-replicate,
// snapshot the healed machine, restore it onto a fresh simulator, and check
// every Table 1 selection plus a join answer with multisets identical to a
// fresh mirrored load.
func TestHealCorrectness(t *testing.T) {
	const nDisk, nDiskless, n, nB = 4, 2, 10000, 2000
	st := newSetup(nDisk, nDiskless, n)
	b := st.m.Load(core.LoadSpec{Name: "B", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(nB, 8))
	_ = b
	h := st.m.EnableHealing(core.HealConfig{Horizon: sim.Time(120 * sim.Second)})
	st.arm(t, fault.Crash(sim.Time(1*sim.Second), 1))
	st.m.Sim.Run()
	for _, ep := range h.Episodes() {
		if ep.RestoredAt < 0 {
			t.Fatalf("healing incomplete before snapshot: %+v", ep)
		}
	}

	snap := st.m.Snapshot()
	m2 := core.RestoreMachine(sim.New(), snap)
	st2 := &setup{m: m2, n: n}
	var ok bool
	if st2.heap, ok = m2.Relation("Aheap"); !ok {
		t.Fatal("restored machine lost Aheap")
	}
	if st2.idx, ok = m2.Relation("Aidx"); !ok {
		t.Fatal("restored machine lost Aidx")
	}

	for _, v := range table1Variants(st2) {
		res := m2.RunSelect(v.q)
		if res.Err != nil {
			t.Fatalf("%s on healed machine: %v", v.label, res.Err)
		}
		if v.q.ToHost {
			if res.Tuples != 1 {
				t.Errorf("%s: %d tuples to host, want 1", v.label, res.Tuples)
			}
			continue
		}
		want := expectSelect(n, v.q.Scan.Pred)
		diffMultisets(t, v.label, want, tuplesOf(t, m2, res.ResultName))
	}

	b2, ok := m2.Relation("B")
	if !ok {
		t.Fatal("restored machine lost B")
	}
	jres := m2.RunJoin(core.JoinQuery{
		Build: core.ScanSpec{Rel: b2, Pred: pct(rel.Unique2, nB, 10), Path: core.PathHeap}, BuildAttr: rel.Unique1,
		Probe: core.ScanSpec{Rel: st2.heap, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique1,
		Mode: core.Remote, MemPerJoinBytes: 64 << 20,
	})
	if jres.Err != nil {
		t.Fatalf("join on healed machine: %v", jres.Err)
	}
	diffMultisets(t, "joinAselB", expectJoinAselB(n, nB), tuplesOf(t, m2, jres.ResultName))
}

// TestRebuildIndexIDsDeterministic: re-replication adopts a rebuilt backup's
// indexes in one order — the clustered index before the dense one, as Load
// allocates them — so the file ids, and with them the disk trace, of a healed
// machine are the same run after run.
func TestRebuildIndexIDsDeterministic(t *testing.T) {
	var want string
	for run := 0; run < 20; run++ {
		st := newSetup(4, 2, 4000)
		h := st.m.EnableHealing(core.HealConfig{Horizon: sim.Time(60 * sim.Second)})
		st.arm(t, fault.Crash(sim.Time(1*sim.Second), 1))
		st.m.Sim.Run()
		if eps := h.Episodes(); st.m.Counters().Rebuilds == 0 || eps[0].RestoredAt < 0 {
			t.Fatalf("run %d did not heal: %+v", run, eps)
		}
		var got strings.Builder
		for i, fr := range st.idx.Backups {
			cl, dense := fr.Indexes[rel.Unique1].FileID(), fr.Indexes[rel.Unique2].FileID()
			if cl > dense {
				t.Errorf("run %d: backup %d on node %d has clustered index file %d after dense %d",
					run, i, fr.Node.ID, cl, dense)
			}
			fmt.Fprintf(&got, "backup %d: node %d file %d u1=%d u2=%d\n", i, fr.Node.ID, fr.File.ID, cl, dense)
		}
		if run == 0 {
			want = got.String()
		} else if got.String() != want {
			t.Fatalf("run %d assigned\n%srun 0\n%s", run, got.String(), want)
		}
	}
}

// campaignWorkload runs one traced, seeded campaign against a 32-node
// mirrored machine under a closed-loop workload and returns the workload
// result, the healer's episodes and the trace — the sustained-campaign smoke
// and its determinism check.
func campaignWorkload(t *testing.T, seed uint64) (core.WorkloadResult, []core.HealEpisode, *trace.Collector) {
	t.Helper()
	const nDisk, n = 32, 8000
	st := newSetup(nDisk, 0, n)
	tr := st.m.EnableTrace()
	camp := fault.Campaign(fault.CampaignSpec{
		Seed: seed, Sites: nDisk, Faults: 12,
		MTTF: 2 * sim.Second, Start: sim.Time(500 * sim.Millisecond),
		MeanOutage: 1 * sim.Second,
	})
	if len(camp) < 10 {
		t.Fatalf("campaign too short: %d faults", len(camp))
	}
	var end sim.Time
	for _, in := range camp {
		if e := in.At + sim.Time(in.Dur); e > end {
			end = e
		}
	}
	st.arm(t, camp...)
	st.m.EnableHealing(core.HealConfig{Horizon: end + sim.Time(20*sim.Second)})
	wl := st.m.RunWorkload(core.WorkloadSpec{
		Terminals:   4,
		PerTerminal: 16,
		Ramp:        sim.Second,
		Seed:        seed,
		Make: func(term, q int, rng func() uint64) core.ConcurrentQuery {
			lo := int32(rng() % uint64(n-100))
			return core.ConcurrentQuery{Select: &core.SelectQuery{
				Scan:   core.ScanSpec{Rel: st.heap, Pred: rel.Between(rel.Unique2, lo, lo+99), Path: core.PathHeap},
				ToHost: true, Project: []rel.Attr{rel.Unique1},
			}}
		},
	})
	return wl, st.m.Healer().Episodes(), tr
}

// TestSustainedCampaign: a ≥10-fault seeded campaign at 32 nodes completes
// with zero process panics, classifies every query, counts each heal step
// the trace records, and is deterministic — the same seed reproduces the
// identical workload result (healer counts included) and heal history.
func TestSustainedCampaign(t *testing.T) {
	wl1, eps1, tr := campaignWorkload(t, 99)
	if got := wl1.Clean + wl1.Degraded + wl1.Failed; got != wl1.Queries {
		t.Errorf("clean %d + degraded %d + failed %d = %d, want %d queries",
			wl1.Clean, wl1.Degraded, wl1.Failed, got, wl1.Queries)
	}
	c := wl1.Counters
	if c.Detections == 0 || c.Promotions == 0 {
		t.Errorf("campaign healed nothing: %d detections, %d promotions", c.Detections, c.Promotions)
	}
	var detects, promotes, rebuilt int
	for _, e := range tr.Of(trace.KindHeal, trace.KindPromote, trace.KindRebuild) {
		switch {
		case e.Kind == trace.KindHeal && e.Class == "detect":
			detects++
		case e.Kind == trace.KindPromote:
			promotes++
		case e.Kind == trace.KindRebuild && e.Class == "done":
			rebuilt++
		}
	}
	if c.Detections != detects || c.Promotions != promotes || c.Rebuilds != rebuilt {
		t.Errorf("counters: %d detections, %d promotions, %d rebuilds; trace: %d, %d, %d",
			c.Detections, c.Promotions, c.Rebuilds, detects, promotes, rebuilt)
	}
	wl2, eps2, _ := campaignWorkload(t, 99)
	if !reflect.DeepEqual(wl1, wl2) {
		t.Error("same seed produced different workload results")
	}
	if !reflect.DeepEqual(eps1, eps2) {
		t.Error("same seed produced different heal histories")
	}
}

// TestCampaignDeterminism: Campaign is a pure function of its spec, distinct
// seeds diverge, and every generated injection round-trips through the spec
// grammar unchanged.
func TestCampaignDeterminism(t *testing.T) {
	spec := fault.CampaignSpec{Seed: 7, Sites: 16, Faults: 40}
	c1 := fault.Campaign(spec)
	c2 := fault.Campaign(spec)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("same spec produced different campaigns")
	}
	spec.Seed = 8
	if reflect.DeepEqual(c1, fault.Campaign(spec)) {
		t.Fatal("different seeds produced identical campaigns")
	}
	last := sim.Time(0)
	for _, in := range c1 {
		if in.At < last {
			t.Fatalf("campaign not in firing order: %v", c1)
		}
		last = in.At
		if in.Site < 0 || in.Site >= 16 {
			t.Errorf("victim %d out of range", in.Site)
		}
		back, err := fault.ParseInjection(fault.FormatInjection(in))
		if err != nil {
			t.Fatalf("injection %+v does not round-trip: %v", in, err)
		}
		if back != in {
			t.Fatalf("round-trip changed injection: %+v -> %+v", in, back)
		}
	}
}
