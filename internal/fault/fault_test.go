package fault_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/fault"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// setup is one mirrored test machine with the two physical versions of the
// Wisconsin relation (heap and indexed), mirroring bench.newGamma.
type setup struct {
	m    *core.Machine
	heap *core.Relation
	idx  *core.Relation
	n    int
}

func newSetup(nDisk, nDiskless, n int) *setup {
	s := sim.New()
	prm := config.Default()
	m := core.NewMachine(s, &prm, nDisk, nDiskless)
	m.EnableMirroring()
	ts := wisconsin.Generate(n, 1)
	u1 := rel.Unique1
	st := &setup{m: m, n: n}
	st.heap = m.Load(core.LoadSpec{Name: "Aheap", Strategy: core.Hashed, PartAttr: rel.Unique1}, ts)
	st.idx = m.Load(core.LoadSpec{
		Name: "Aidx", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, ts)
	return st
}

// arm stages injections that must fit the machine.
func (st *setup) arm(t *testing.T, in ...fault.Injection) {
	t.Helper()
	if err := fault.Arm(st.m, fault.Schedule{Injections: in}); err != nil {
		t.Fatal(err)
	}
}

// hashSite is where a Unique1 key lands on a hash-declustered relation.
func hashSite(key int32, nDisk int) int {
	return int(rel.Hash64(key, core.LoadSeed) % uint64(nDisk))
}

// pct is a predicate on attr selecting k percent of an n-tuple relation.
func pct(attr rel.Attr, n, k int) rel.Pred {
	return rel.Between(attr, 0, int32(n*k/100-1))
}

// tuplesOf reads the multiset of tuples stored in a catalogued relation.
func tuplesOf(t *testing.T, m *core.Machine, name string) map[rel.Tuple]int {
	t.Helper()
	r, ok := m.Relation(name)
	if !ok {
		t.Fatalf("relation %q not in catalog", name)
	}
	out := map[rel.Tuple]int{}
	for _, fr := range r.Frags {
		for i := 0; i < fr.File.Pages(); i++ {
			for _, tp := range fr.File.Page(i).LiveTuples(nil) {
				out[tp]++
			}
		}
	}
	return out
}

// expectSelect is the multiset a selection must produce, computed directly
// from the generated data.
func expectSelect(n int, pred rel.Pred) map[rel.Tuple]int {
	out := map[rel.Tuple]int{}
	for _, tp := range wisconsin.Generate(n, 1) {
		if pred.Match(tp) {
			out[tp]++
		}
	}
	return out
}

func diffMultisets(t *testing.T, label string, want, got map[rel.Tuple]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d distinct tuples, want %d", label, len(got), len(want))
	}
	for tp, w := range want {
		if g := got[tp]; g != w {
			t.Errorf("%s: tuple u1=%d appears %d times, want %d", label, tp.Get(rel.Unique1), g, w)
			return
		}
	}
	for tp, g := range got {
		if _, ok := want[tp]; !ok {
			t.Errorf("%s: unexpected tuple u1=%d (×%d)", label, tp.Get(rel.Unique1), g)
			return
		}
	}
}

// table1Variants are the seven Table 1 selection queries.
func table1Variants(st *setup) []struct {
	label string
	q     core.SelectQuery
} {
	n := st.n
	return []struct {
		label string
		q     core.SelectQuery
	}{
		{"1% nonindexed", core.SelectQuery{Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, n, 1), Path: core.PathHeap}}},
		{"10% nonindexed", core.SelectQuery{Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, n, 10), Path: core.PathHeap}}},
		{"1% non-clustered index", core.SelectQuery{Scan: core.ScanSpec{Rel: st.idx, Pred: pct(rel.Unique2, n, 1), Path: core.PathNonClustered}}},
		{"10% segment scan of indexed", core.SelectQuery{Scan: core.ScanSpec{Rel: st.idx, Pred: pct(rel.Unique2, n, 10), Path: core.PathHeap}}},
		{"1% clustered index", core.SelectQuery{Scan: core.ScanSpec{Rel: st.idx, Pred: pct(rel.Unique1, n, 1), Path: core.PathClustered}}},
		{"10% clustered index", core.SelectQuery{Scan: core.ScanSpec{Rel: st.idx, Pred: pct(rel.Unique1, n, 10), Path: core.PathClustered}}},
		{"single tuple select", core.SelectQuery{
			Scan:   core.ScanSpec{Rel: st.idx, Pred: rel.Eq(rel.Unique1, int32(n/2)), Path: core.PathClustered},
			ToHost: true,
		}},
	}
}

// TestSelectFailoverAllVariants crashes a disk node mid-query for every
// Table 1 selection variant and checks the retried result is exactly the
// fault-free answer.
func TestSelectFailoverAllVariants(t *testing.T) {
	const nDisk, nDiskless, n = 4, 2, 10000
	base := newSetup(nDisk, nDiskless, n)
	for vi, v := range table1Variants(base) {
		// Fault-free timing reference on a fresh machine.
		ref := newSetup(nDisk, nDiskless, n)
		refQ := table1Variants(ref)[vi].q
		refRes := ref.m.RunSelect(refQ)

		// Crash the site serving the scan (or site 1 for multi-site
		// scans) halfway through the fault-free response time.
		site := 1
		if v.q.ToHost {
			site = int(rel.Hash64(int32(n/2), core.LoadSeed) % uint64(nDisk))
		}
		st := newSetup(nDisk, nDiskless, n)
		q := table1Variants(st)[vi].q
		at := st.m.Sim.Now() + sim.Time(refRes.Elapsed/2)
		st.arm(t, fault.Crash(at, site))
		res := st.m.RunSelect(q)

		if v.q.ToHost {
			if res.Tuples != refRes.Tuples {
				t.Errorf("%s: %d tuples to host, want %d", v.label, res.Tuples, refRes.Tuples)
			}
			continue
		}
		want := expectSelect(n, v.q.Scan.Pred)
		got := tuplesOf(t, st.m, res.ResultName)
		diffMultisets(t, v.label, want, got)
		if res.Tuples != refRes.Tuples {
			t.Errorf("%s: res.Tuples = %d, want %d", v.label, res.Tuples, refRes.Tuples)
		}
		if res.Elapsed <= refRes.Elapsed {
			t.Errorf("%s: degraded elapsed %v not above fault-free %v", v.label, res.Elapsed, refRes.Elapsed)
		}
	}
}

// joinAselB joins the full A relation against a 10% selection of B.
func joinAselB(st *setup, b *core.Relation, mem int) core.JoinQuery {
	return core.JoinQuery{
		Build: core.ScanSpec{Rel: b, Pred: pct(rel.Unique2, b.N, 10), Path: core.PathHeap}, BuildAttr: rel.Unique1,
		Probe: core.ScanSpec{Rel: st.heap, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique1,
		Mode: core.Remote, MemPerJoinBytes: mem,
	}
}

// expectJoinAselB computes the join's answer multiset directly: the probe
// tuple is emitted once per matching build tuple.
func expectJoinAselB(nA, nB int) map[rel.Tuple]int {
	bPred := pct(rel.Unique2, nB, 10)
	matches := map[int32]int{}
	for _, tp := range wisconsin.Generate(nB, 8) {
		if bPred.Match(tp) {
			matches[tp.Get(rel.Unique1)]++
		}
	}
	out := map[rel.Tuple]int{}
	for _, tp := range wisconsin.Generate(nA, 1) {
		if c := matches[tp.Get(rel.Unique1)]; c > 0 {
			out[tp] += c
		}
	}
	return out
}

// TestJoinFailoverMidQuery crashes a disk node mid-join (with ample memory,
// and under memory pressure so overflow rounds are in flight) and checks
// the answer is exact.
func TestJoinFailoverMidQuery(t *testing.T) {
	const nDisk, nDiskless, nA, nB = 4, 2, 10000, 2000
	for _, mem := range []int{64 << 20, 24 << 10} {
		label := fmt.Sprintf("mem=%d", mem)
		ref := newSetup(nDisk, nDiskless, nA)
		refB := ref.m.Load(core.LoadSpec{Name: "B", Strategy: core.Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(nB, 8))
		refRes := ref.m.RunJoin(joinAselB(ref, refB, mem))

		st := newSetup(nDisk, nDiskless, nA)
		b := st.m.Load(core.LoadSpec{Name: "B", Strategy: core.Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(nB, 8))
		at := st.m.Sim.Now() + sim.Time(refRes.Elapsed/2)
		st.arm(t, fault.Crash(at, 2))
		res := st.m.RunJoin(joinAselB(st, b, mem))

		want := expectJoinAselB(nA, nB)
		got := tuplesOf(t, st.m, res.ResultName)
		diffMultisets(t, label, want, got)
		if res.Tuples != refRes.Tuples {
			t.Errorf("%s: res.Tuples = %d, want %d", label, res.Tuples, refRes.Tuples)
		}
	}
}

// TestDriveFailover fails only a drive (processor survives) mid-query:
// detection is operator-driven and the answer must still be exact.
func TestDriveFailover(t *testing.T) {
	const nDisk, nDiskless, n = 4, 2, 10000
	q := func(st *setup) core.SelectQuery {
		return core.SelectQuery{Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, n, 10), Path: core.PathHeap}}
	}
	ref := newSetup(nDisk, nDiskless, n)
	refRes := ref.m.RunSelect(q(ref))

	st := newSetup(nDisk, nDiskless, n)
	tr := st.m.EnableTrace()
	at := st.m.Sim.Now() + sim.Time(refRes.Elapsed/2)
	st.arm(t, fault.BadDrive(at, 1))
	res := st.m.RunSelect(q(st))

	diffMultisets(t, "drive-fail", expectSelect(n, pct(rel.Unique2, n, 10)), tuplesOf(t, st.m, res.ResultName))
	if faults := tr.Of(trace.KindFault); len(faults) != 1 || faults[0].Class != "drive-fail" {
		t.Errorf("faults = %v, want one drive-fail", faults)
	}
	retries := 0
	for _, e := range tr.Of(trace.KindFailover) {
		if e.Class == "retry" {
			retries++
		}
	}
	if retries == 0 {
		t.Error("no retry recorded in trace")
	}
	// The result tells the same story as the trace: one attempt per retry
	// beyond the first, and the answer came partly from backups.
	if res.Attempts != retries+1 || !res.Degraded {
		t.Errorf("result: %d attempts, degraded %v; trace has %d retries", res.Attempts, res.Degraded, retries)
	}
}

// TestSpoolDriveFailover fails the drive that a diskless join site spools to,
// at instants spread over a join that overflows join memory. Whichever
// operator meets the failed drive first, the join site's spool writes
// included, the query must retry to the exact answer and leave no spool file
// on any store.
func TestSpoolDriveFailover(t *testing.T) {
	const nDisk, nDiskless, nA, nB, mem = 4, 4, 10000, 10000, 30000
	load := func(st *setup) *core.Relation {
		return st.m.Load(core.LoadSpec{Name: "B", Strategy: core.Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(nB, 8))
	}
	ref := newSetup(nDisk, nDiskless, nA)
	refRes := ref.m.RunJoin(joinAselB(ref, load(ref), mem))
	if refRes.Overflows == 0 {
		t.Fatal("the join does not overflow; test vacuous")
	}
	files := func(m *core.Machine) []int {
		var n []int
		for _, nd := range m.Disk {
			n = append(n, m.StoreOf(nd).Files())
		}
		return n
	}
	want := expectJoinAselB(nA, nB)
	spoolFailures := 0
	for tenth := 1; tenth < 10; tenth++ {
		label := fmt.Sprintf("drive-fail at %d/10 of the join", tenth)
		st := newSetup(nDisk, nDiskless, nA)
		b := load(st)
		before := files(st.m)
		tr := st.m.EnableTrace()
		site := st.m.Diskless[1] // spools to disk site 1
		st.arm(t, fault.BadDrive(st.m.Sim.Now()+sim.Time(refRes.Elapsed*sim.Dur(tenth)/10), 1))
		res := st.m.RunJoin(joinAselB(st, b, mem))
		if res.Err != nil || res.Attempts != 2 {
			t.Errorf("%s: error %v after %d attempts, want an answer after one retry", label, res.Err, res.Attempts)
			continue
		}
		diffMultisets(t, label, want, tuplesOf(t, st.m, res.ResultName))
		st.m.Drop(res.ResultName)
		if after := files(st.m); !slices.Equal(after, before) {
			t.Errorf("%s: stores hold %v files without the result, %v before the join", label, after, before)
		}
		if diedOfDrive(tr, site.ID, st.m.Sched.ID) {
			spoolFailures++
		}
	}
	if spoolFailures == 0 {
		t.Error("no instant failed the join site's spool write; test vacuous")
	}
}

// diedOfDrive reports whether the operator on node, in the first attempt of
// a traced query, was the one that met the failed drive: it reported to the
// scheduler between the fault and the abort, and did not acknowledge the
// abort, because its drive failure had already closed its port.
func diedOfDrive(tr *trace.Collector, node, sched int) bool {
	fault := tr.Of(trace.KindFault)[0].At
	abort, retry := int64(-1), int64(-1)
	for _, e := range tr.Of(trace.KindFailover) {
		switch {
		case e.Class == "abort" && abort < 0:
			abort = e.At
		case e.Class == "retry" && retry < 0:
			retry = e.At
		}
	}
	reported, acked := false, false
	for _, e := range tr.Of(trace.KindCtlMsg) {
		if e.From == node && e.To == sched {
			reported = reported || fault <= e.At && e.At <= abort
			acked = acked || abort < e.At && e.At <= retry
		}
	}
	return reported && !acked
}

// TestNICOutage: a transient NIC outage delays a query without failover and
// without changing its answer.
func TestNICOutage(t *testing.T) {
	const nDisk, nDiskless, n = 4, 2, 10000
	q := func(st *setup) core.SelectQuery {
		return core.SelectQuery{Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, n, 10), Path: core.PathHeap}}
	}
	ref := newSetup(nDisk, nDiskless, n)
	refRes := ref.m.RunSelect(q(ref))

	st := newSetup(nDisk, nDiskless, n)
	tr := st.m.EnableTrace()
	at := st.m.Sim.Now() + sim.Time(refRes.Elapsed/4)
	st.arm(t, fault.NICStall(at, st.m.Disk[1].ID, 1*sim.Second))
	res := st.m.RunSelect(q(st))

	diffMultisets(t, "nic-outage", expectSelect(n, pct(rel.Unique2, n, 10)), tuplesOf(t, st.m, res.ResultName))
	if res.Elapsed <= refRes.Elapsed {
		t.Errorf("outage elapsed %v not above fault-free %v", res.Elapsed, refRes.Elapsed)
	}
	if evs := tr.Of(trace.KindFailover); len(evs) != 0 {
		t.Errorf("NIC outage triggered failover: %v", evs)
	}
}

// TestBothChainMembersDown: killing a chained pair (a fragment's primary site
// and the next site holding its backup) fails the affected query with a
// typed *core.ErrUnavailable — not a panic — and leaves the machine serving
// queries that avoid the dead fragment.
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

// TestOutageRejoin: while a site is out, a 1% selection reads its fragment
// from the chained backup and answers exactly; once the site rejoins, the
// same query reads the primary again, with neither degradation nor a retry,
// and still answers exactly. The rejoin is one fault/rejoin trace record.
func TestOutageRejoin(t *testing.T) {
	const nDisk, nDiskless, n, site = 4, 2, 10000, 2
	const out = 30 * sim.Second
	st := newSetup(nDisk, nDiskless, n)
	tr := st.m.EnableTrace()
	st.arm(t, fault.Outage(0, site, out))
	q := core.SelectQuery{Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, n, 1), Path: core.PathHeap}}
	want := expectSelect(n, q.Scan.Pred)

	during := st.m.RunSelect(q)
	if during.Err != nil {
		t.Fatalf("selection during the outage: %v", during.Err)
	}
	if !during.Degraded || during.Attempts != 1 {
		t.Errorf("during the outage: degraded %v after %d attempts, want degraded on the first", during.Degraded, during.Attempts)
	}
	if during.Elapsed >= out {
		t.Fatalf("selection took %v, outlasting the %v outage", during.Elapsed, out)
	}
	diffMultisets(t, "during the outage", want, tuplesOf(t, st.m, during.ResultName))

	var rejoins []trace.Event
	for _, e := range tr.Of(trace.KindFault) {
		if e.Class == "rejoin" {
			rejoins = append(rejoins, e)
		}
	}
	if len(rejoins) != 1 || rejoins[0].Site != site || rejoins[0].Node != st.m.Disk[site].ID || rejoins[0].At != int64(out) {
		t.Fatalf("rejoin records %+v, want one for site %d at %v", rejoins, site, out)
	}

	after := st.m.RunSelect(q)
	if after.Err != nil {
		t.Fatalf("selection after the rejoin: %v", after.Err)
	}
	if after.Degraded || after.Attempts != 1 {
		t.Errorf("after the rejoin: degraded %v after %d attempts, want neither", after.Degraded, after.Attempts)
	}
	diffMultisets(t, "after the rejoin", want, tuplesOf(t, st.m, after.ResultName))
}

// TestCrashAfterCompletion: a crash scheduled after the query finishes must
// not change the result at all.
func TestCrashAfterCompletion(t *testing.T) {
	const nDisk, nDiskless, n = 4, 2, 10000
	q := func(st *setup) core.SelectQuery {
		return core.SelectQuery{Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, n, 1), Path: core.PathHeap}}
	}
	ref := newSetup(nDisk, nDiskless, n)
	refRes := ref.m.RunSelect(q(ref))

	st := newSetup(nDisk, nDiskless, n)
	st.m.EnableFailover(0)
	res := st.m.RunSelect(q(st))
	st.m.CrashDisk(1)

	if res.Elapsed != refRes.Elapsed || res.Tuples != refRes.Tuples {
		t.Errorf("post-completion crash changed result: %+v vs %+v", res, refRes)
	}
	diffMultisets(t, "post-crash", expectSelect(n, pct(rel.Unique2, n, 1)), tuplesOf(t, st.m, res.ResultName))
}

// TestDegradedShape: the degraded response is worse than fault-free but
// bounded — a detection timeout plus a replay, not a timeout cliff.
func TestDegradedShape(t *testing.T) {
	const nDisk, nDiskless, n = 4, 2, 10000
	q := func(st *setup) core.SelectQuery {
		return core.SelectQuery{Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, n, 10), Path: core.PathHeap}}
	}
	ref := newSetup(nDisk, nDiskless, n)
	t0 := ref.m.RunSelect(q(ref)).Elapsed

	st := newSetup(nDisk, nDiskless, n)
	at := st.m.Sim.Now() + sim.Time(t0/2)
	st.arm(t, fault.Crash(at, 1))
	t1 := st.m.RunSelect(q(st)).Elapsed

	if t1 <= t0 {
		t.Errorf("degraded %v not above fault-free %v", t1, t0)
	}
	// Bound: half a run + detection timeout + a full degraded replay.
	bound := 3*t0 + 2*core.DefaultFailoverDetect
	if t1 > bound {
		t.Errorf("degraded %v exceeds bound %v (fault-free %v) — timeout cliff?", t1, bound, t0)
	}
}

// TestFaultDeterminism: identical seed and fault schedule produce a
// byte-identical trace and identical Results, run to run.
func TestFaultDeterminism(t *testing.T) {
	const nDisk, nDiskless, nA, nB = 4, 2, 10000, 2000
	run := func() (core.Result, []byte) {
		st := newSetup(nDisk, nDiskless, nA)
		tr := st.m.EnableTrace()
		b := st.m.Load(core.LoadSpec{Name: "B", Strategy: core.Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(nB, 8))
		st.arm(t,
			fault.Crash(st.m.Sim.Now()+400*sim.Millisecond, 2),
			fault.NICStall(st.m.Sim.Now()+100*sim.Millisecond, st.m.Diskless[0].ID, 50*sim.Millisecond))
		res := st.m.RunJoin(joinAselB(st, b, 64<<20))
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	res1, trace1 := run()
	res2, trace2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("results differ:\n%+v\n%+v", res1, res2)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("traces differ (%d vs %d bytes)", len(trace1), len(trace2))
	}
}

func TestParseInjection(t *testing.T) {
	good := map[string]fault.Injection{
		"2@1.5":         {At: sim.Time(1.5 * float64(sim.Second)), Kind: fault.NodeCrash, Site: 2},
		"crash:0@0":     {Kind: fault.NodeCrash, Site: 0},
		"drive:3@0.25":  {At: sim.Time(0.25 * float64(sim.Second)), Kind: fault.DriveFail, Site: 3},
		"nic:1@0.5+0.2": {At: sim.Time(0.5 * float64(sim.Second)), Kind: fault.NICOutage, Site: 1, Dur: sim.Dur(0.2 * float64(sim.Second))},
	}
	for s, want := range good {
		got, err := fault.ParseInjection(s)
		if err != nil {
			t.Errorf("ParseInjection(%q): %v", s, err)
		} else if got != want {
			t.Errorf("ParseInjection(%q) = %+v, want %+v", s, got, want)
		}
	}
	for _, s := range []string{"", "x", "a@1", "-1@2", "burn:1@2", "nic:1@0.5", "1@-3", "nic:1@1+0"} {
		if _, err := fault.ParseInjection(s); err == nil {
			t.Errorf("ParseInjection(%q): no error", s)
		}
	}
}

// TestArmRejectsSitesPastTheMachine: an injection aimed at a site or node the
// machine lacks is a *SiteError, one row per kind, and Arm stages nothing —
// not even the schedule's valid injections.
func TestArmRejectsSitesPastTheMachine(t *testing.T) {
	st := newSetup(2, 1, 100)
	nodes := len(st.m.Net.Nodes())
	for _, tc := range []struct {
		in    fault.Injection
		limit int
		want  string
	}{
		{fault.Crash(0, 2), 2, "fault node-crash@2 t=0.000s: the machine has 2 disk sites"},
		{fault.BadDrive(0, 2), 2, "fault drive-fail@2 t=0.000s: the machine has 2 disk sites"},
		{fault.Outage(0, 5, sim.Second), 2, "fault outage@5 t=0.000s for 1.000s: the machine has 2 disk sites"},
		{fault.NICStall(0, nodes, sim.Second), nodes, fmt.Sprintf("fault nic-outage@%d t=0.000s for 1.000s: the machine has %d nodes", nodes, nodes)},
	} {
		err := fault.Arm(st.m, fault.Schedule{Injections: []fault.Injection{fault.Crash(0, 0), tc.in}})
		se, ok := err.(*fault.SiteError)
		if !ok || se.Injection != tc.in || se.Limit != tc.limit || err.Error() != tc.want {
			t.Errorf("Arm(%v) = %v, want *SiteError %q", tc.in, err, tc.want)
		}
	}
	st.m.Sim.Run()
	if st.m.Disk[0].Failed() {
		t.Error("a rejected schedule crashed site 0")
	}
}
