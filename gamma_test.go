package gamma_test

import (
	"testing"

	"gamma"
	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/sim"
)

// TestPublicAPIQuickstart exercises the facade end-to-end: machine
// construction, loading, and all four query classes.
func TestPublicAPIQuickstart(t *testing.T) {
	m := gamma.New(4, 4, nil)
	u1 := gamma.Unique1
	r := m.Load(gamma.LoadSpec{
		Name: "tenktup", Strategy: gamma.Hashed, PartAttr: gamma.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []gamma.Attr{gamma.Unique2},
	}, gamma.Wisconsin(2000, 1))

	sel := m.RunSelect(gamma.SelectQuery{
		Scan: gamma.ScanSpec{Rel: r, Pred: gamma.Between(gamma.Unique2, 0, 19)},
	})
	if sel.Tuples != 20 || sel.Elapsed <= 0 {
		t.Fatalf("select: %d tuples, %v", sel.Tuples, sel.Elapsed)
	}

	b := m.Load(gamma.LoadSpec{Name: "bprime", Strategy: gamma.Hashed, PartAttr: gamma.Unique1},
		gamma.Wisconsin(200, 7))
	join := m.RunJoin(gamma.JoinQuery{
		Build: gamma.ScanSpec{Rel: b, Pred: gamma.All()}, BuildAttr: gamma.Unique2,
		Probe: gamma.ScanSpec{Rel: r, Pred: gamma.All()}, ProbeAttr: gamma.Unique2,
		Mode: gamma.Remote,
	})
	if join.Tuples != 200 {
		t.Fatalf("join: %d tuples", join.Tuples)
	}

	agg := m.RunAgg(gamma.AggQuery{
		Scan: gamma.ScanSpec{Rel: r, Pred: gamma.All()},
		Fn:   gamma.Max, Attr: gamma.Unique1, Mode: gamma.Remote,
	})
	if agg.Groups[0] != 1999 {
		t.Fatalf("agg: max = %d", agg.Groups[0])
	}

	upd := m.RunUpdate(gamma.UpdateQuery{
		Rel: r, Kind: gamma.ModifyNonIndexed, Key: 7, Attr: gamma.Ten, NewValue: 3,
	})
	if upd.Tuples != 1 {
		t.Fatalf("update: %d", upd.Tuples)
	}
}

// TestPublicAPITeradata exercises the baseline machine through the facade.
func TestPublicAPITeradata(t *testing.T) {
	tm := gamma.NewTeradata(nil)
	tr := tm.Load("A", gamma.Unique1, []gamma.Attr{gamma.Unique2}, gamma.Wisconsin(1000, 1))
	if tr.N != 1000 {
		t.Fatalf("loaded %d", tr.N)
	}
}

// TestDeterministicResponseTimes: two identical machines give bit-identical
// simulated times — the property that makes every experiment reproducible.
func TestDeterministicResponseTimes(t *testing.T) {
	run := func() (int, float64) {
		m := gamma.New(4, 4, nil)
		r := m.Load(gamma.LoadSpec{Name: "A", Strategy: gamma.Hashed, PartAttr: gamma.Unique1},
			gamma.Wisconsin(1500, 3))
		res := m.RunSelect(gamma.SelectQuery{
			Scan: gamma.ScanSpec{Rel: r, Pred: gamma.Between(gamma.Unique2, 5, 400)},
		})
		return res.Tuples, res.Elapsed.Seconds()
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Errorf("nondeterministic: (%d, %v) vs (%d, %v)", n1, t1, n2, t2)
	}
}

// TestConfigOverride: a faster CPU must shorten CPU-bound queries.
func TestConfigOverride(t *testing.T) {
	run := func(mips float64) float64 {
		cfg := gamma.DefaultConfig()
		cfg.CPU.MIPS = mips
		cfg.PageBytes = 32 * 1024 // CPU-bound regime (Figures 5-6)
		m := gamma.New(4, 0, &cfg)
		r := m.Load(gamma.LoadSpec{Name: "A", Strategy: gamma.Hashed, PartAttr: gamma.Unique1},
			gamma.Wisconsin(5000, 1))
		return m.RunSelect(gamma.SelectQuery{
			Scan: gamma.ScanSpec{Rel: r, Pred: gamma.Between(gamma.Unique2, -2, -1), Path: gamma.PathHeap},
		}).Elapsed.Seconds()
	}
	slow, fast := run(0.6), run(6.0)
	if fast >= slow {
		t.Errorf("10x CPU did not help a CPU-bound scan: %v vs %v", fast, slow)
	}
}

// TestLibraryMatchesBenchMachine: the machine this package hands out and the
// one gammabench builds (core.NewMachine on a fresh simulation) are one
// model: the same selection and joinABprime report the same response times
// and counts.
// It is what keeps the examples, gammaql and gammaload printing the numbers
// gammabench prints.
func TestLibraryMatchesBenchMachine(t *testing.T) {
	run := func(m *gamma.Machine) [2]gamma.Result {
		u1 := gamma.Unique1
		a := m.Load(gamma.LoadSpec{
			Name: "tenktup", Strategy: gamma.Hashed, PartAttr: gamma.Unique1,
			ClusteredIndex: &u1, NonClusteredIndexes: []gamma.Attr{gamma.Unique2},
		}, gamma.Wisconsin(4000, 1))
		b := m.Load(gamma.LoadSpec{Name: "bprime", Strategy: gamma.Hashed, PartAttr: gamma.Unique1},
			gamma.Wisconsin(400, 7))
		return [2]gamma.Result{
			m.RunSelect(gamma.SelectQuery{Scan: gamma.ScanSpec{Rel: a, Pred: gamma.Between(gamma.Unique2, 0, 399)}}),
			m.RunJoin(gamma.JoinQuery{
				Build: gamma.ScanSpec{Rel: b, Pred: gamma.All()}, BuildAttr: gamma.Unique2,
				Probe: gamma.ScanSpec{Rel: a, Pred: gamma.All()}, ProbeAttr: gamma.Unique2,
				Mode: gamma.Remote,
			}),
		}
	}
	prm := config.Default()
	lib, bench := run(gamma.New(4, 4, nil)), run(core.NewMachine(sim.New(), &prm, 4, 4))
	for i, name := range []string{"selection", "joinABprime"} {
		if lib[i].Elapsed != bench[i].Elapsed || lib[i].Tuples != bench[i].Tuples || lib[i].Tuples == 0 {
			t.Errorf("%s: library machine %v / %d tuples, bench machine %v / %d tuples",
				name, lib[i].Elapsed, lib[i].Tuples, bench[i].Elapsed, bench[i].Tuples)
		}
	}
}
