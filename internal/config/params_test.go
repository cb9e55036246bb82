package config_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/teradata"
	"gamma/internal/wisconsin"
)

// insensitive lists the parameters the mini-workload below cannot move, each
// with the reason it stays.
var insensitive = map[string]string{
	"Memory.NodeBytes": "Teradata sort memory; a 2k-tuple join's runs fit it at any setting, the paper-scale joins' do not",
}

// miniWorkload runs a fixed set of small queries on both machines under prm
// and renders every response time and answer.
func miniWorkload(prm config.Params) string {
	var b strings.Builder
	report := func(label string, elapsed sim.Dur, answer ...any) {
		fmt.Fprintf(&b, "%s %d %v\n", label, elapsed, answer)
	}

	g := prm
	m := core.NewMachine(sim.New(), &g, 2, 1)
	u1 := rel.Unique1
	a := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2}}, wisconsin.Generate(2000, 1))
	bp := m.Load(core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(200, 7))
	for _, q := range []struct {
		label string
		scan  core.ScanSpec
	}{
		{"heap", core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 19), Path: core.PathHeap}},
		{"clustered", core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique1, 0, 199), Path: core.PathClustered}},
		{"non-clustered", core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 199), Path: core.PathNonClustered}},
	} {
		res := m.RunSelect(core.SelectQuery{Scan: q.scan})
		report(q.label, res.Elapsed, res.Tuples, res.Err)
	}
	for _, mem := range []int{100 * 1024, 0} { // overflowing, then the configured memory
		res := m.RunJoin(core.JoinQuery{
			Build: core.ScanSpec{Rel: a, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
			Probe: core.ScanSpec{Rel: bp, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
			Mode: core.Remote, MemPerJoinBytes: mem,
		})
		report("join", res.Elapsed, res.Tuples, res.Overflows, res.Err)
	}
	ten := rel.Ten
	agg := m.RunAgg(core.AggQuery{Scan: core.ScanSpec{Rel: a, Pred: rel.True(), Path: core.PathHeap},
		Fn: core.Sum, Attr: rel.Unique1, GroupBy: &ten, Mode: core.Remote})
	report("agg", agg.Elapsed, agg.Tuples, agg.Groups, agg.Err)
	var tp rel.Tuple
	tp.Set(rel.Unique1, 5000)
	tp.Set(rel.Unique2, 5000)
	for _, q := range []core.UpdateQuery{
		{Kind: core.AppendTuple, Tuple: tp},
		{Kind: core.DeleteByKey, Key: 7},
		{Kind: core.ModifyKeyAttr, Key: 11, Attr: rel.Unique1, NewValue: 6000},
		{Kind: core.ModifyNonIndexed, Key: 13, Attr: rel.OddOnePercent, NewValue: 1},
		{Kind: core.ModifyIndexed, Key: 17, Attr: rel.Unique2, NewValue: 7000},
	} {
		q.Rel = a
		res := m.RunUpdate(q)
		report(q.Kind.String(), res.Elapsed, res.Tuples, res.Err)
	}

	t := prm
	tm := teradata.NewMachine(sim.New(), &t)
	ta := tm.Load("A", rel.Unique1, []rel.Attr{rel.Unique2}, wisconsin.Generate(2000, 1))
	tb := tm.Load("Bprime", rel.Unique1, nil, wisconsin.Generate(200, 7))
	sel := tm.RunSelect(ta, rel.Between(rel.Unique2, 0, 199), teradata.FileScan, false)
	report("tera-select", sel.Elapsed, sel.Tuples)
	join := tm.RunJoin(teradata.JoinQuery{R1: ta, Pred1: rel.True(), Attr1: rel.Unique2, R2: tb, Pred2: rel.True(), Attr2: rel.Unique2})
	report("tera-join", join.Elapsed, join.Tuples)
	app := tm.RunUpdate(teradata.UpdateQuery{Rel: ta, Kind: teradata.AppendTuple, Tuple: tp})
	report("tera-append", app.Elapsed, app.Tuples)
	return b.String()
}

// numericLeaves returns the path and address of every integer or float field
// under v, a struct.
func numericLeaves(prefix string, v reflect.Value) (paths []string, fields []reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			p, fs := numericLeaves(name+".", f)
			paths, fields = append(paths, p...), append(fields, fs...)
		case reflect.Int, reflect.Int64, reflect.Float64:
			paths, fields = append(paths, name), append(fields, f)
		}
	}
	return paths, fields
}

// scale multiplies a numeric field by num/den.
func scale(f reflect.Value, num, den int64) {
	if f.Kind() == reflect.Float64 {
		f.SetFloat(f.Float() * float64(num) / float64(den))
	} else {
		f.SetInt(f.Int() * num / den)
	}
}

// TestEveryParamMatters: every numeric parameter of the default configuration,
// doubled (or halved, where doubling cannot bite), moves some response time or
// answer of a small fixed workload on Gamma and Teradata. A parameter no query
// reads is a knob that only looks calibrated; it goes, or is listed in
// insensitive with its reason.
func TestEveryParamMatters(t *testing.T) {
	base := miniWorkload(config.Default())
	paths, _ := numericLeaves("", reflect.ValueOf(config.Default()))
	for i, path := range paths {
		moved := false
		for _, factor := range [][2]int64{{2, 1}, {1, 2}} {
			prm := config.Default()
			_, fields := numericLeaves("", reflect.ValueOf(&prm).Elem())
			scale(fields[i], factor[0], factor[1])
			if miniWorkload(prm) != base {
				moved = true
				break
			}
		}
		reason, listed := insensitive[path]
		switch {
		case !moved && !listed:
			t.Errorf("%s: neither doubling nor halving it moves any response time or result", path)
		case moved && listed:
			t.Errorf("%s is listed as insensitive (%s) but moves the workload", path, reason)
		}
	}
	for path := range insensitive {
		if !slices.Contains(paths, path) {
			t.Errorf("insensitive lists %s, which is not a parameter", path)
		}
	}
}
