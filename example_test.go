package gamma_test

import (
	"fmt"

	"gamma"
	"gamma/internal/rel"
	"gamma/internal/teradata"
)

// benchmarkDB is the paper's indexed benchmark relation (§4): hash
// declustered on unique1, clustered on unique1, a dense index on unique2.
func benchmarkDB(m *gamma.Machine, name string, n int) *gamma.Relation {
	u1 := gamma.Unique1
	return m.Load(gamma.LoadSpec{Name: name, Strategy: gamma.Hashed, PartAttr: gamma.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []gamma.Attr{gamma.Unique2}}, gamma.Wisconsin(n, 1))
}

// The standard configuration of §2 (8 processors with disks, 8 diskless),
// the 10,000-tuple benchmark relation, and one query of each class.
func Example_quickstart() {
	m := gamma.New(8, 8, nil)
	tenk := benchmarkDB(m, "tenktup", 10000)

	// A 1% selection; the optimizer picks the clustered index on unique1.
	sel := m.RunSelect(gamma.SelectQuery{
		Scan: gamma.ScanSpec{Rel: tenk, Pred: gamma.Between(gamma.Unique1, 0, 99)},
	})
	fmt.Printf("1%% selection:   %4d tuples in %6.3fs simulated\n", sel.Tuples, sel.Elapsed.Seconds())

	// joinABprime: a join with a relation a tenth the size (§6).
	bprime := m.Load(gamma.LoadSpec{Name: "bprime", Strategy: gamma.Hashed, PartAttr: gamma.Unique1},
		gamma.Wisconsin(1000, 7))
	join := m.RunJoin(gamma.JoinQuery{
		Build: gamma.ScanSpec{Rel: bprime, Pred: gamma.All()}, BuildAttr: gamma.Unique2,
		Probe: gamma.ScanSpec{Rel: tenk, Pred: gamma.All()}, ProbeAttr: gamma.Unique2,
		Mode: gamma.Remote,
	})
	fmt.Printf("joinABprime:    %4d tuples in %6.3fs simulated\n", join.Tuples, join.Elapsed.Seconds())

	// A grouped aggregate on the diskless processors.
	by := gamma.Ten
	agg := m.RunAgg(gamma.AggQuery{
		Scan: gamma.ScanSpec{Rel: tenk, Pred: gamma.All()},
		Fn:   gamma.Min, Attr: gamma.Unique1, GroupBy: &by, Mode: gamma.Remote,
	})
	fmt.Printf("min by ten:     %4d groups in %6.3fs simulated\n", len(agg.Groups), agg.Elapsed.Seconds())

	// A single-tuple update located through the clustered index.
	upd := m.RunUpdate(gamma.UpdateQuery{
		Rel: tenk, Kind: gamma.ModifyNonIndexed, Key: 4242, Attr: gamma.OddOnePercent, NewValue: 1,
	})
	fmt.Printf("modify 1 tuple: %4d tuple  in %6.3fs simulated\n", upd.Tuples, upd.Elapsed.Seconds())
	// Output:
	// 1% selection:    100 tuples in  0.885s simulated
	// joinABprime:    1000 tuples in  6.366s simulated
	// min by ten:       10 groups in  4.412s simulated
	// modify 1 tuple:    1 tuple  in  0.244s simulated
}

// Figures 1-2 in miniature: a non-indexed 1% selection speeds up nearly
// linearly as processors and disks are added to a relation of fixed size.
func Example_speedup() {
	const n = 50000
	fmt.Printf("%-10s %11s %8s\n", "processors", "response(s)", "speedup")
	var base float64
	for d := 1; d <= 8; d++ {
		m := gamma.New(d, d, nil)
		r := m.Load(gamma.LoadSpec{Name: "A", Strategy: gamma.Hashed, PartAttr: gamma.Unique1}, gamma.Wisconsin(n, 1))
		secs := m.RunSelect(gamma.SelectQuery{
			Scan: gamma.ScanSpec{Rel: r, Pred: gamma.Between(gamma.Unique2, 0, n/100-1), Path: gamma.PathHeap},
		}).Elapsed.Seconds()
		if d == 1 {
			base = secs
		}
		fmt.Printf("%-10d %11.2f %8.2f\n", d, secs, base/secs)
	}
	// Output:
	// processors response(s)  speedup
	// 1                52.28     1.00
	// 2                26.38     1.98
	// 3                17.83     2.93
	// 4                13.51     3.87
	// 5                11.06     4.73
	// 6                 9.35     5.59
	// 7                 8.27     6.32
	// 8                 7.28     7.18
}

// Figure 13 in miniature: joinABprime (Remote, 50,000 tuples) as the hash
// table memory shrinks below the build relation. The two joins are identical
// while the build relation fits. At memory ratios 0.8 and 0.6 Hybrid is
// slower than Simple: it plans equal-size partitions up front and spools all
// but one, where Simple's one overflow spools an eighth of the keys. From 0.4
// down Simple degrades rapidly, re-spooling on every pass, and Hybrid (the
// replacement §8 announces) wins, by more than 2x at 0.2.
func Example_joinOverflow() {
	const n = 50000
	run := func(q gamma.JoinQuery, ratio float64) string {
		m := gamma.New(8, 8, nil)
		a := m.Load(gamma.LoadSpec{Name: "A", Strategy: gamma.Hashed, PartAttr: gamma.Unique1}, gamma.Wisconsin(n, 1))
		bprime := m.Load(gamma.LoadSpec{Name: "Bprime", Strategy: gamma.Hashed, PartAttr: gamma.Unique1},
			gamma.Wisconsin(n/10, 7))
		q.Build, q.BuildAttr = gamma.ScanSpec{Rel: bprime, Pred: gamma.All()}, gamma.Unique1
		q.Probe, q.ProbeAttr = gamma.ScanSpec{Rel: a, Pred: gamma.All()}, gamma.Unique1
		q.Mode, q.MemPerJoinBytes = gamma.Remote, int(ratio*float64((n/10)*208)/8)
		res := m.RunJoin(q)
		return fmt.Sprintf("%7.2fs ovf=%d", res.Elapsed.Seconds(), res.Overflows)
	}
	fmt.Printf("%-6s %14s  %14s\n", "memory", "Simple", "Hybrid")
	for _, ratio := range []float64{1.2, 1.0, 0.8, 0.6, 0.4, 0.2} {
		fmt.Printf("%-6.1f %14s  %14s\n", ratio,
			run(gamma.JoinQuery{Algorithm: gamma.SimpleHash}, ratio), run(gamma.JoinQuery{Algorithm: gamma.HybridHash}, ratio))
	}
	// Output:
	// memory         Simple          Hybrid
	// 1.2      25.84s ovf=0    25.84s ovf=0
	// 1.0      29.80s ovf=1    29.80s ovf=1
	// 0.8      34.80s ovf=1    48.93s ovf=0
	// 0.6      41.38s ovf=1    48.93s ovf=0
	// 0.4      59.52s ovf=2    52.66s ovf=0
	// 0.2     132.11s ovf=6    58.24s ovf=1
}

// Figures 5-8 in miniature, on 50,000 tuples: bigger disk pages speed up a
// sequential scan until the CPU binds, barely move a clustered-index read,
// and slow non-clustered index access from 8 KB up, which is why §8
// recommends an 8 KB page rather than track-size pages.
func Example_pageSize() {
	const n = 50000
	fmt.Printf("%-5s %9s %14s %18s\n", "page", "10% scan", "1% clustered", "1% non-clustered")
	for _, ps := range []int{2048, 4096, 8192, 16384, 32768} {
		cfg := gamma.DefaultConfig()
		cfg.PageBytes = ps
		m := gamma.New(8, 8, &cfg)
		r := benchmarkDB(m, "A", n)
		secs := func(attr gamma.Attr, percent int32, path gamma.AccessPath) float64 {
			return m.RunSelect(gamma.SelectQuery{
				Scan: gamma.ScanSpec{Rel: r, Pred: gamma.Between(attr, 0, n*percent/100-1), Path: path},
			}).Elapsed.Seconds()
		}
		fmt.Printf("%2d KB %8.2fs %13.2fs %17.2fs\n", ps/1024, secs(gamma.Unique2, 10, gamma.PathHeap),
			secs(gamma.Unique1, 1, gamma.PathClustered), secs(gamma.Unique2, 1, gamma.PathNonClustered))
	}
	// Output:
	// page   10% scan   1% clustered   1% non-clustered
	//  2 KB    16.16s          1.08s              2.58s
	//  4 KB     8.69s          0.99s              2.56s
	//  8 KB     5.69s          0.95s              2.53s
	// 16 KB     4.49s          0.96s              2.79s
	// 32 KB     4.20s          1.03s              3.24s
}

// Table 1 in miniature, on 20,000 tuples: Gamma's clustered B-trees and
// cheap result storage beat the DBC/1012's hash files (20 AMPs, a dense
// secondary index on unique2) on range selections, and Gamma is faster on
// the single-tuple select as well.
func Example_teradataVsGamma() {
	const n = 20000
	gm := gamma.New(8, 8, nil)
	gr := benchmarkDB(gm, "A", n)
	tm := gamma.NewTeradata(nil)
	tr := tm.Load("A", rel.Unique1, []rel.Attr{rel.Unique2}, gamma.Wisconsin(n, 1))
	gam := func(pred gamma.Pred, path gamma.AccessPath, toHost bool) float64 {
		return gm.RunSelect(gamma.SelectQuery{Scan: gamma.ScanSpec{Rel: gr, Pred: pred, Path: path}, ToHost: toHost}).Elapsed.Seconds()
	}
	tera := func(pred gamma.Pred, kind teradata.SelectKind, toHost bool) float64 {
		return tm.RunSelect(tr, pred, kind, toHost).Elapsed.Seconds()
	}
	onePct, key := gamma.Between(gamma.Unique2, 0, n/100-1), gamma.Eq(gamma.Unique1, n/2)
	fmt.Printf("%-27s %9s %7s\n", "query", "Teradata", "Gamma")
	fmt.Printf("%-27s %8.2fs %6.2fs\n", "1% non-indexed selection",
		tera(onePct, teradata.FileScan, false), gam(onePct, gamma.PathHeap, false))
	fmt.Printf("%-27s %8.2fs %6.2fs\n", "1% via non-clustered index",
		tera(onePct, teradata.IndexScan, false), gam(onePct, gamma.PathNonClustered, false))
	fmt.Printf("%-27s %9s %6.2fs\n", "1% via clustered index",
		"-", gam(gamma.Between(gamma.Unique1, 0, n/100-1), gamma.PathClustered, false))
	fmt.Printf("%-27s %8.2fs %6.2fs\n", "single-tuple select",
		tera(key, teradata.HashAccess, true), gam(key, gamma.PathClustered, true))
	// Output:
	// query                        Teradata   Gamma
	// 1% non-indexed selection        7.13s   3.37s
	// 1% via non-clustered index      7.54s   1.49s
	// 1% via clustered index              -   0.90s
	// single-tuple select             1.04s   0.22s
}
