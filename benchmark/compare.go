package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict compares one end-to-end metric of two runs. Medians decide between
// better, same and worse against the metric's bound; when the two sides'
// min-max ranges overlap by more than the bound the run-to-run spread is
// wider than the effect the bound could resolve, and the answer is
// unresolved rather than "same".
func verdict(m metricDef, base, cur metricStat) (ratio float64, v string) {
	if base.Median == 0 {
		if cur.Median == 0 {
			return 1, "same"
		}
		return 0, "unresolved"
	}
	ratio = cur.Median / base.Median
	worse := ratio - 1
	if m.Better == "higher" {
		worse = -worse
	}
	overlap := (min(base.Max, cur.Max) - max(base.Min, cur.Min)) / base.Median
	switch {
	case overlap > m.Bound:
		return ratio, "unresolved"
	case worse > m.Bound:
		return ratio, "worse"
	case worse < -m.Bound:
		return ratio, "better"
	}
	return ratio, "same"
}

func readLedger(path string) (ledger, error) {
	var l ledger
	data, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(data, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// compareMain is `benchmark compare BASE.json NEW.json`: the benchdiff of
// ROADMAP item 1. It exits 1 on any "worse" or a higher fail_share, and 2
// when the two files cannot be compared at all.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare BASE.json NEW.json")
		return 2
	}
	var ledgers [2]ledger
	for i, path := range args {
		var err error
		if ledgers[i], err = readLedger(path); err != nil {
			fmt.Fprintln(stderr, "benchmark compare:", err)
			return 2
		}
	}
	return compareLedgers(ledgers[0], ledgers[1], stdout, stderr)
}

func compareLedgers(base, cur ledger, stdout, stderr io.Writer) int {
	if base.P != cur.P {
		fmt.Fprintf(stderr, "benchmark compare: results taken at different P (%d vs %d) are not comparable\n", base.P, cur.P)
		return 2
	}
	if len(base.Workloads) != len(cur.Workloads) {
		fmt.Fprintf(stderr, "benchmark compare: workload lists differ (%d vs %d workloads)\n", len(base.Workloads), len(cur.Workloads))
		return 2
	}
	for i, b := range base.Workloads {
		if c := cur.Workloads[i]; b.Name != c.Name || (b.EndToEnd == nil) != (c.EndToEnd == nil) {
			fmt.Fprintf(stderr, "benchmark compare: workload lists differ at %s / %s\n", b.Name, c.Name)
			return 2
		}
	}
	fmt.Fprintf(stdout, "base %s (%s, nproc %d)  new %s (%s, nproc %d)  P=%d\n",
		base.Commit, base.GoVersion, base.NProc, cur.Commit, cur.GoVersion, cur.NProc, cur.P)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tnew median\tnew/base\tbound\tverdict")
	bad := false
	for i, b := range base.Workloads {
		c := cur.Workloads[i]
		for _, m := range endToEnd {
			ratio, v := verdict(m, b.EndToEnd[m.Name], c.EndToEnd[m.Name])
			bad = bad || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%.0f%%\t%s\n", b.Name, m.Name,
				b.EndToEnd[m.Name].Median, m.Unit, c.EndToEnd[m.Name].Median, m.Unit, ratio, 100*m.Bound, v)
		}
		v := "same"
		if c.failShare() > b.failShare() {
			v, bad = "worse", true
		} else if c.failShare() < b.failShare() {
			v = "better"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t\t0\t%s\n", b.Name, failShare, b.failShare(), c.failShare(), v)
		if b.SimEvents != c.SimEvents || b.SimDigest != c.SimDigest {
			fmt.Fprintf(tw, "%s\tsim_events/sim_digest\t%d\t%d\t\t\tmodel changed\n", b.Name, b.SimEvents, c.SimEvents)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	if bad {
		return 1
	}
	return 0
}
