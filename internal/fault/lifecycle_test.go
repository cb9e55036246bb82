package fault_test

// Tests of the one query lifecycle for aggregates and updates: on a
// failover-armed machine they run exactly as on an unarmed one, a site lost
// at any instant ends them in the fault-free answer or a typed
// *core.ErrUnavailable, a report from an aborted aggregate attempt never
// satisfies the retry, and a site down before the query is a typed error
// even without mirroring.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/fault"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

const lcDisk, lcDiskless, lcTuples = 4, 2, 4000

// lifecycleCase is one aggregate or update query. run returns the query's
// Result and its answer rendered as a string: the groups or the changed-tuple
// count. sites lists the disk sites an update writes (nil for aggregates).
type lifecycleCase struct {
	label string
	sites []int
	run   func(st *setup) (core.Result, string)
}

func lifecycleCases() []lifecycleCase {
	n := int32(lcTuples)
	agg := func(fn core.AggFn, by *rel.Attr) func(st *setup) (core.Result, string) {
		return func(st *setup) (core.Result, string) {
			r := st.m.RunAgg(core.AggQuery{
				Scan: core.ScanSpec{Rel: st.heap, Pred: pct(rel.Unique2, lcTuples, 50), Path: core.PathHeap},
				Fn:   fn, Attr: rel.Unique1, GroupBy: by, Mode: core.Remote,
			})
			return r.Result, fmt.Sprint(r.Tuples, r.Groups)
		}
	}
	upd := func(q core.UpdateQuery) func(st *setup) (core.Result, string) {
		return func(st *setup) (core.Result, string) {
			q.Rel = st.idx
			r := st.m.RunUpdate(q)
			return r, fmt.Sprint(r.Tuples)
		}
	}
	ten, onePercent := rel.Ten, rel.OnePercent
	var appended rel.Tuple
	appended.Set(rel.Unique1, n+1)
	appended.Set(rel.Unique2, n+1)
	all := []int{0, 1, 2, 3}
	return []lifecycleCase{
		{label: "count", run: agg(core.Count, nil)},
		{label: "sum", run: agg(core.Sum, nil)},
		{label: "min", run: agg(core.Min, nil)},
		{label: "max", run: agg(core.Max, nil)},
		{label: "avg", run: agg(core.Avg, nil)},
		{label: "count by ten", run: agg(core.Count, &ten)},
		{label: "max by onePercent", run: agg(core.Max, &onePercent)},
		{label: "append", sites: []int{hashSite(n+1, lcDisk)}, run: upd(core.UpdateQuery{Kind: core.AppendTuple, Tuple: appended})},
		{label: "delete", sites: []int{hashSite(7, lcDisk)}, run: upd(core.UpdateQuery{Kind: core.DeleteByKey, Key: 7})},
		{label: "modify-key", sites: []int{hashSite(11, lcDisk), hashSite(n+5, lcDisk)},
			run: upd(core.UpdateQuery{Kind: core.ModifyKeyAttr, Key: 11, Attr: rel.Unique1, NewValue: n + 5})},
		{label: "modify-nonindexed", sites: []int{hashSite(13, lcDisk)},
			run: upd(core.UpdateQuery{Kind: core.ModifyNonIndexed, Key: 13, Attr: rel.OddOnePercent, NewValue: 1})},
		{label: "modify-indexed", sites: all,
			run: upd(core.UpdateQuery{Kind: core.ModifyIndexed, Key: 17, Attr: rel.Unique2, NewValue: n + 9})},
	}
}

// runSafely runs fn, turning a panic into a test error.
func runSafely(t *testing.T, label string, fn func()) (ok bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panic: %v", label, r)
			ok = false
		}
	}()
	fn()
	return true
}

// TestArmedLifecycleMatchesUnarmed: arming failover with no fault injected
// changes nothing an aggregate or update reports — not the answer, not
// the response time.
func TestArmedLifecycleMatchesUnarmed(t *testing.T) {
	for _, c := range lifecycleCases() {
		ref := newSetup(lcDisk, lcDiskless, lcTuples)
		want, wantAnswer := c.run(ref)
		st := newSetup(lcDisk, lcDiskless, lcTuples)
		st.m.EnableFailover(0)
		var got core.Result
		var answer string
		if !runSafely(t, c.label, func() { got, answer = c.run(st) }) {
			continue
		}
		if got.Err != nil || answer != wantAnswer || got.Elapsed != want.Elapsed || got.Attempts != 1 {
			t.Errorf("%s armed: err %v, %d attempt(s), %v, answer %.60s; unarmed: %v, answer %.60s",
				c.label, got.Err, got.Attempts, got.Elapsed, answer, want.Elapsed, wantAnswer)
		}
	}
}

// TestLifecycleCrashSweep crashes each disk site of a mirrored, failover-armed
// machine at several instants of every aggregate and update. Each case
// must end in the fault-free answer or a typed *core.ErrUnavailable, with no
// panic, and no goroutine may outlive the closed simulations. A read-only
// query always gets its answer (one crash leaves every fragment a copy); an
// update is not retried, but one that loses none of the sites it writes
// must succeed.
func TestLifecycleCrashSweep(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, c := range lifecycleCases() {
		ref := newSetup(lcDisk, lcDiskless, lcTuples)
		want, wantAnswer := c.run(ref)
		ref.m.Sim.Close()
		for site := 0; site < lcDisk; site++ {
			for _, frac := range []int64{1, 2} {
				at := sim.Time(int64(want.Elapsed) * frac / 3)
				label := fmt.Sprintf("%s, site %d crashed at %v", c.label, site, at)
				st := newSetup(lcDisk, lcDiskless, lcTuples)
				st.arm(t, fault.Crash(at, site))
				var got core.Result
				var answer string
				ok := runSafely(t, label, func() { got, answer = c.run(st) })
				st.m.Sim.Close()
				if !ok {
					continue
				}
				writes := c.sites == nil
				for _, s := range c.sites {
					writes = writes || s == site
				}
				var unavailable *core.ErrUnavailable
				switch {
				case got.Err == nil && answer != wantAnswer:
					t.Errorf("%s: answer %.60s, want %.60s", label, answer, wantAnswer)
				case got.Err != nil && !errors.As(got.Err, &unavailable):
					t.Errorf("%s: untyped error %v", label, got.Err)
				case got.Err != nil && (c.sites == nil || !writes):
					t.Errorf("%s: %v, want the answer", label, got.Err)
				}
			}
		}
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines live after every simulation was closed, %d before the sweep", n, baseline)
	}
}

// TestAggRetryIgnoresStaleReports: a Local grouped aggregate runs its
// operators on the disk sites. Crashing the site whose partial reaches the
// scheduler last, at instants while the others are reporting, leaves partials
// of the aborted attempt filed at the scheduler; the retry must still
// wait for its own. The sweep must hit that case at least once.
func TestAggRetryIgnoresStaleReports(t *testing.T) {
	ten := rel.Ten
	q := func(st *setup) core.AggQuery {
		return core.AggQuery{
			Scan: core.ScanSpec{Rel: st.heap, Pred: rel.True(), Path: core.PathHeap},
			Fn:   core.Count, Attr: rel.Unique1, GroupBy: &ten, Mode: core.Local,
		}
	}
	ref := newSetup(lcDisk, lcDiskless, lcTuples)
	tr := ref.m.EnableTrace()
	want := ref.m.RunAgg(q(ref))
	// The partials are about the last nDisk control messages from disk sites
	// to the scheduler: they bound the sweep's window, and the count below
	// confirms what a case actually left behind.
	isDisk := map[int]int{}
	for i, nd := range ref.m.Disk {
		isDisk[nd.ID] = i
	}
	var reports []trace.Event
	for _, e := range tr.Of(trace.KindCtlMsg) {
		if _, ok := isDisk[e.From]; ok && e.To == ref.m.Sched.ID {
			reports = append(reports, e)
		}
	}
	partials := reports[len(reports)-lcDisk:]
	first, last := sim.Time(partials[0].At), sim.Time(partials[lcDisk-1].At)
	victim := isDisk[partials[lcDisk-1].From]
	cost := sim.Time(ref.m.Prm.Net.CtlMsg)
	ref.m.Sim.Close()

	exercised := 0
	const steps = 8
	for k := 0; k <= steps; k++ {
		// The victim must die before it starts paying for its own report.
		at := first + (last-cost-first)*sim.Time(k)/steps
		label := fmt.Sprintf("site %d crashed at %v", victim, at)
		st := newSetup(lcDisk, lcDiskless, lcTuples)
		tr := st.m.EnableTrace()
		st.arm(t, fault.Crash(at, victim))
		var got core.AggResult
		ok := runSafely(t, label, func() { got = st.m.RunAgg(q(st)) })
		if ok && (got.Err != nil || got.Tuples != want.Tuples || fmt.Sprint(got.Groups) != fmt.Sprint(want.Groups)) {
			t.Errorf("%s: err %v, %d tuples, groups %v; want %d tuples, groups %v", label, got.Err, got.Tuples, got.Groups, want.Tuples, want.Groups)
		}
		// Before the abort the scheduler hears one completion per scan
		// site at most; anything more from the disk sites is a partial of
		// the attempt being aborted.
		abort := sim.Time(-1)
		for _, e := range tr.Of(trace.KindFailover) {
			if e.Class == "abort" {
				abort = sim.Time(e.At)
				break
			}
		}
		heard := 0
		for _, e := range tr.Of(trace.KindCtlMsg) {
			if _, ok := isDisk[e.From]; ok && e.To == st.m.Sched.ID && sim.Time(e.At) < abort {
				heard++
			}
		}
		if heard > lcDisk {
			exercised++
		}
		st.m.Sim.Close()
	}
	if exercised == 0 {
		t.Errorf("no crash instant left a partial of the aborted attempt at the scheduler")
	}
}

// TestUnmirroredSiteDownIsTypedError: with one site down and no mirror, an
// aggregate (scalar or grouped) and an update that needs the site
// each fail with a typed *core.ErrUnavailable instead of a panic.
func TestUnmirroredSiteDownIsTypedError(t *testing.T) {
	ten := rel.Ten
	for _, q := range []struct {
		label string
		run   func(m *core.Machine, scan core.ScanSpec) core.Result
	}{
		{"scalar aggregate", func(m *core.Machine, scan core.ScanSpec) core.Result {
			return m.RunAgg(core.AggQuery{Scan: scan, Fn: core.Count, Attr: rel.Unique1}).Result
		}},
		{"grouped aggregate", func(m *core.Machine, scan core.ScanSpec) core.Result {
			return m.RunAgg(core.AggQuery{Scan: scan, Fn: core.Count, Attr: rel.Unique1, GroupBy: &ten}).Result
		}},
		{"modify-indexed", func(m *core.Machine, scan core.ScanSpec) core.Result {
			return m.RunUpdate(core.UpdateQuery{Rel: scan.Rel, Kind: core.ModifyIndexed, Key: 5, Attr: rel.Unique2, NewValue: lcTuples + 5})
		}},
	} {
		prm := config.Default()
		m := core.NewMachine(sim.New(), &prm, lcDisk, lcDiskless)
		u1 := rel.Unique1
		r := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1,
			ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2}}, wisconsin.Generate(lcTuples, 1))
		m.CrashDisk(1)
		var res core.Result
		if !runSafely(t, q.label, func() { res = q.run(m, core.ScanSpec{Rel: r, Pred: rel.True(), Path: core.PathHeap}) }) {
			continue
		}
		var unavailable *core.ErrUnavailable
		if !errors.As(res.Err, &unavailable) {
			t.Errorf("%s with site 1 down and no mirror: err %v, want *core.ErrUnavailable", q.label, res.Err)
		}
	}
}
