package fault_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gamma/internal/core"
	"gamma/internal/fault"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// TestKillBeforeStartSweep crashes a disk site while an operator initiation
// addressed to it is on the ring. The scheduler has paid for the operator and
// sent its start; the process exists only one Net.MinLatency later, so for
// that long there is nothing for CrashDisk to kill and the start must be lost
// with the node — also when the node has rejoined by the time it lands. For
// every initiation a small selection and a small join send to site 1 of a
// mirrored, failover-armed 3+3 machine, the crash instant sweeps the span
// [send, send + MinLatency] (both ends and one step outside included), once as
// a permanent crash and once as an outage that ends inside the span. Every run
// must end in the fault-free answer or a typed *core.ErrUnavailable: no panic,
// no deadlock (Run reports processes left parked), no goroutine left once the
// simulation is closed — and no operator may start on the victim at the
// landing instant of a start that was on the ring when it went down.
func TestKillBeforeStartSweep(t *testing.T) {
	const nDisk, nDiskless, nA, nB, victim = 3, 3, 3000, 600, 1
	build := func() (*setup, *core.Relation) {
		st := newSetup(nDisk, nDiskless, nA)
		b := st.m.Load(core.LoadSpec{Name: "B", Strategy: core.Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(nB, 8))
		return st, b
	}
	selPred := pct(rel.Unique2, nA, 10)
	queries := []struct {
		label string
		want  map[rel.Tuple]int
		run   func(st *setup, b *core.Relation) core.Result
	}{
		{"select", expectSelect(nA, selPred), func(st *setup, _ *core.Relation) core.Result {
			return st.m.RunSelect(core.SelectQuery{Scan: core.ScanSpec{Rel: st.heap, Pred: selPred, Path: core.PathHeap}})
		}},
		// Local mode puts a join operator on the victim too.
		{"join", expectJoinAselB(nA, nB), func(st *setup, b *core.Relation) core.Result {
			q := joinAselB(st, b, 64<<20)
			q.Mode = core.Local
			return st.m.RunJoin(q)
		}},
	}
	baseline := runtime.NumGoroutine()
	for _, q := range queries {
		// The fault-free run says when each initiation for the victim leaves
		// the scheduler: its ctl event carries the whole initiation cost.
		ref, refB := build()
		tr := ref.m.EnableTrace()
		q.run(ref, refB)
		prm := ref.m.Prm
		hop := prm.Net.MinLatency
		initCost := int64(prm.Engine.MsgsPerOperatorInit) * int64(prm.Net.CtlMsg)
		var sends []sim.Time
		for _, e := range tr.Of(trace.KindCtlMsg) {
			if e.From == ref.m.Sched.ID && e.To == ref.m.Disk[victim].ID && e.Dur == initCost {
				sends = append(sends, sim.Time(e.At))
			}
		}
		if len(sends) < 2 {
			t.Fatalf("%s: %d initiations addressed to site %d in the fault-free trace, want at least store + scan", q.label, len(sends), victim)
		}
		ref.m.Sim.Close()

		const steps = 4
		for _, send := range sends {
			for k := -1; k <= steps+1; k++ {
				at := send + sim.Time(int64(hop)*int64(k)/steps)
				for _, in := range []fault.Injection{
					fault.Crash(at, victim),
					fault.Outage(at, victim, hop/(2*steps)), // back up before the start lands
				} {
					label := fmt.Sprintf("%s, %v (initiation sent at %v)", q.label, in, send)
					st, b := build()
					tr := st.m.EnableTrace()
					if err := fault.Arm(st.m, fault.Schedule{Detect: 20 * sim.Millisecond, Injections: []fault.Injection{in}}); err != nil {
						t.Fatal(err)
					}
					var res core.Result
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s: panic: %v", label, r)
							}
						}()
						res = q.run(st, b)
					}()
					if t.Failed() {
						return
					}
					var unavailable *core.ErrUnavailable
					switch {
					case res.Err == nil:
						diffMultisets(t, label, q.want, tuplesOf(t, st.m, res.ResultName))
					case !errors.As(res.Err, &unavailable):
						t.Errorf("%s: untyped error %v", label, res.Err)
					}
					if at >= send && at < send+sim.Time(hop) {
						for _, e := range tr.Events() {
							if e.Kind == trace.KindOpStart && e.Node == st.m.Disk[victim].ID && sim.Time(e.At) == send+sim.Time(hop) {
								t.Errorf("%s: operator %s started on the victim from a start that was in flight when it crashed", label, e.Op)
							}
						}
					}
					st.m.Sim.Close()
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
