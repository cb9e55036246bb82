// Command gammaload explores Gamma's four declustering strategies (§2):
// it loads a Wisconsin relation under each strategy and reports fragment
// balance plus the response time of an exact-match and a range selection,
// showing why the strategy choice matters per workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gammaload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nDisk := fs.Int("disk", 8, "processors with disks")
	tuples := fs.Int("tuples", 20000, "relation cardinality")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *nDisk < 1:
		err = fmt.Errorf("-disk %d: need at least one disk processor", *nDisk)
	case *tuples < 1:
		err = fmt.Errorf("-tuples %d: need at least 1", *tuples)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gammaload: %v\n", err)
		fs.Usage()
		return 2
	}

	strategies := []core.PartStrategy{core.RoundRobin, core.Hashed, core.RangeUser, core.RangeUniform}
	ts := wisconsin.Generate(*tuples, 1)
	// The user's ranges are a poor choice on purpose: the first sites split
	// the lower half of the keys and the last site holds the upper half.
	var userBounds []int32
	for i := 1; i < *nDisk; i++ {
		userBounds = append(userBounds, int32(i*(*tuples/2)/(*nDisk-1)-1))
	}

	fmt.Fprintf(stdout, "%-16s %-24s %14s %14s\n", "strategy", "fragment sizes", "exact-match", "1% range")
	for _, strat := range strategies {
		prm := config.Default()
		m := core.NewMachine(sim.New(), &prm, *nDisk, 0)
		r := m.Load(core.LoadSpec{Name: "A", Strategy: strat, PartAttr: rel.Unique1, Bounds: userBounds}, ts)

		sizes := ""
		for i, fr := range r.Frags {
			if i > 0 {
				sizes += "/"
			}
			sizes += fmt.Sprint(fr.File.Len())
		}

		exact := m.RunSelect(core.SelectQuery{
			Scan:   core.ScanSpec{Rel: r, Pred: rel.Eq(rel.Unique1, int32(*tuples/2)), Path: core.PathHeap},
			ToHost: true,
		})
		rng := m.RunSelect(core.SelectQuery{
			Scan: core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique1, 0, int32(*tuples/100-1)), Path: core.PathHeap},
		})
		fmt.Fprintf(stdout, "%-16s %-24s %13.2fs %13.2fs\n", strat, sizes, exact.Elapsed.Seconds(), rng.Elapsed.Seconds())
	}
	fmt.Fprintln(stdout, "\nHashed partitioning directs exact-match queries on the key to a single site;")
	fmt.Fprintln(stdout, "range partitioning additionally confines range queries on the key (§2).")
	fmt.Fprintln(stdout, "The user's ranges here put half the keys on the last site: an exact match confined")
	fmt.Fprintln(stdout, "there scans the largest fragment, while a range below it scans one of the smallest.")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
