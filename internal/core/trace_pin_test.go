package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// TestTracePins holds the join sites' spooling, the spool scans and the
// stores' log shipping to the event stream they produced when each spooled
// tuple, spooled page and shipped log page resumed its operator's process:
// the sha256 of the JSONL trace, the retired-event count, the response time
// and the result size of joins that overflow join memory and of queries that
// store under a recovery server. The values were recorded before that work
// moved into the kernel (sim.Proc.Steps); they change only if a stage
// reserves at another instant or in another order.
func TestTracePins(t *testing.T) {
	type outcome struct {
		sha      string
		executed uint64
		elapsed  sim.Dur
		tuples   int
	}
	run := func(recovery bool, query func(m *Machine, a, b *Relation) Result) (o outcome, spools int) {
		prm := config.Default()
		m := NewMachine(sim.New(), &prm, 4, 4)
		u1 := rel.Unique1
		a := m.Load(LoadSpec{
			Name: "A", Strategy: Hashed, PartAttr: rel.Unique1,
			ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
		}, wisconsin.Generate(10000, 1))
		b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(1000, 7))
		if recovery {
			m.EnableRecovery()
		}
		col := m.EnableTrace()
		res := query(m, a, b)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for _, e := range col.Of(trace.KindOpStart) {
			if e.Class == "spool-scan" {
				spools++
			}
		}
		h := sha256.New()
		if err := col.WriteJSONL(h); err != nil {
			t.Fatal(err)
		}
		return outcome{hex.EncodeToString(h.Sum(nil)), m.Sim.Executed(), res.Elapsed, res.Tuples}, spools
	}
	// join overflows join memory: B builds, A probes, on unique2.
	join := func(mode JoinMode, algo JoinAlgorithm, mem int) func(m *Machine, a, b *Relation) Result {
		return func(m *Machine, a, b *Relation) Result {
			return m.RunJoin(JoinQuery{
				Build: ScanSpec{Rel: b, Pred: rel.True(), Path: PathHeap}, BuildAttr: rel.Unique2,
				Probe: ScanSpec{Rel: a, Pred: rel.True(), Path: PathHeap}, ProbeAttr: rel.Unique2,
				Mode: mode, Algorithm: algo, MemPerJoinBytes: mem,
			})
		}
	}
	storedSelect := func(m *Machine, a, _ *Relation) Result {
		return m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 999), Path: PathHeap}})
	}
	for _, tc := range []struct {
		name     string
		recovery bool
		join     bool
		query    func(m *Machine, a, b *Relation) Result
		want     outcome
	}{
		{"simple-remote", false, true, join(Remote, SimpleHash, 30000), outcome{"8217d9ff70c05b29b18885fa97f2de06bc89af0203954776f68dc109f816efd9", 26197, 18416734, 1000}},
		{"simple-local", false, true, join(Local, SimpleHash, 30000), outcome{"d7e76b26e3f827468cfdc7ba31688bd346ca602e322765584024f885c88d682e", 21799, 22221287, 1000}},
		{"hybrid-remote", false, true, join(Remote, HybridHash, 12000), outcome{"9c667e62e81e464ea04e54299aee23974410546a1252dee3e841bcc4c702545b", 34721, 24360798, 1000}},
		{"recovery-select", true, false, storedSelect, outcome{"e5a29d5dde925f73b3f7c26cc2b95614c88113933a303da063bc9a21458ebd16", 3897, 3707057, 1000}},
		{"recovery-join", true, true, join(Remote, SimpleHash, 15000), outcome{"2583e915de94834462d89588acaa8dd3d66325e2c7e7f9581cb3b7c95bbff7b4", 47483, 33934785, 1000}},
	} {
		got, spools := run(tc.recovery, tc.query)
		if tc.join && spools == 0 {
			t.Errorf("%s: no spool scan; the join does not overflow", tc.name)
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
