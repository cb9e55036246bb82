// Command gammatrace runs one query on a simulated Gamma machine and prints
// a per-resource utilization report plus a bottleneck verdict — the tool for
// seeing which resource (disk, CPU, or network interface) bound a query, the
// diagnostic axis of §5.2 and §6.2.
//
// Usage:
//
//	gammatrace [-disk 8] [-diskless 8] [-tuples 100000] [-pagesize 4096]
//	           [-query select|join] [-sel 10] [-mode remote]
//	           [-fault spec]... [-mirror] [-detect 0.25]
//	           [-out trace.jsonl]
//
// -sel is the selection percentage; -out exports the structured event stream
// as JSONL.
//
// -fault injects a failure at a simulated instant and may repeat. Specs are
// "site@seconds" (disk-node crash), "drive:site@seconds" (drive only), or
// "nic:node@seconds+dur" (transient NIC outage). Any -fault loads the
// relations with chained-declustered backups and arms mid-query failover;
// -mirror loads the backups without injecting anything, and -detect tunes
// the scheduler's operator-silence timeout in seconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/fault"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// faultList collects repeated -fault flags.
type faultList []fault.Injection

func (f *faultList) String() string {
	var parts []string
	for _, in := range *f {
		parts = append(parts, in.String())
	}
	return strings.Join(parts, ",")
}

func (f *faultList) Set(s string) error {
	in, err := fault.ParseInjection(s)
	if err != nil {
		return err
	}
	*f = append(*f, in)
	return nil
}

// parseMode resolves a -mode flag value, rejecting unknown strings (instead
// of silently falling through to the zero JoinMode).
func parseMode(s string) (core.JoinMode, error) {
	switch s {
	case "local":
		return core.Local, nil
	case "remote":
		return core.Remote, nil
	case "all", "allnodes":
		return core.AllNodes, nil
	default:
		return 0, fmt.Errorf("unknown join mode %q (want local, remote, or all)", s)
	}
}

// checkFlags rejects the flag values a machine cannot be built, loaded or
// queried with.
func checkFlags(nDisk, nDiskless, tuples, pageSize int, query string, selPct float64) error {
	minTuples := 1
	switch query {
	case "select":
	case "join":
		minTuples = 10 // Bprime holds a tenth of A's tuples
	default:
		return fmt.Errorf("unknown query %q (want select or join)", query)
	}
	switch {
	case nDisk < 1:
		return fmt.Errorf("-disk %d: need at least one disk processor", nDisk)
	case nDiskless < 0:
		return fmt.Errorf("-diskless %d: must not be negative", nDiskless)
	case tuples < minTuples:
		return fmt.Errorf("-tuples %d: a %s needs at least %d", tuples, query, minTuples)
	case pageSize <= 0:
		return fmt.Errorf("-pagesize %d: must be positive", pageSize)
	case !(selPct >= 0 && selPct <= 100):
		return fmt.Errorf("-sel %g: must be a percentage in [0, 100]", selPct)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gammatrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nDisk := fs.Int("disk", 8, "processors with disks")
	nDiskless := fs.Int("diskless", 8, "diskless processors")
	tuples := fs.Int("tuples", 100000, "relation cardinality")
	pageSize := fs.Int("pagesize", 4096, "disk page size in bytes")
	query := fs.String("query", "select", "select | join")
	selPct := fs.Float64("sel", 10, "selection percentage")
	mode := fs.String("mode", "remote", "join mode: local | remote | all")
	out := fs.String("out", "", "write the structured event stream as JSONL to this file")
	var faults faultList
	fs.Var(&faults, "fault", "inject a failure: site@sec, drive:site@sec, or nic:node@sec+dur (repeatable)")
	mirror := fs.Bool("mirror", false, "load chained-declustered backup fragments (implied by -fault)")
	detect := fs.Float64("detect", 0, "failover detection timeout in seconds (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "gammatrace: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	jm, err := parseMode(*mode)
	if err == nil {
		err = checkFlags(*nDisk, *nDiskless, *tuples, *pageSize, *query, *selPct)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gammatrace: %v\n", err)
		fs.Usage()
		return 2
	}

	prm := config.Default()
	prm.PageBytes = *pageSize
	s := sim.New()
	m := core.NewMachine(s, &prm, *nDisk, *nDiskless)
	col := m.EnableTrace()
	if len(faults) > 0 || *mirror {
		m.EnableMirroring()
	}
	u1 := rel.Unique1
	r := m.Load(core.LoadSpec{
		Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(*tuples, 1))
	if len(faults) > 0 {
		fault.Arm(m, fault.Schedule{
			Detect:     sim.Dur(*detect * float64(sim.Second)),
			Injections: faults,
		})
	}

	pred := rel.Between(rel.Unique2, 0, int32(float64(*tuples)**selPct/100)-1)
	before := m.Counters()
	var res core.Result
	switch *query {
	case "select":
		res = m.RunSelect(core.SelectQuery{Scan: core.ScanSpec{Rel: r, Pred: pred, Path: core.PathHeap}})
		fmt.Fprintf(stdout, "select %.0f%%: %d tuples in %.3fs simulated; %d packets, %d short-circuited\n\n",
			*selPct, res.Tuples, res.Elapsed.Seconds(), res.Counters.Net.DataPackets, res.Counters.Net.LocalMsgs)
	case "join":
		b := m.Load(core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
			wisconsin.Generate(*tuples/10, 7))
		res = m.RunJoin(core.JoinQuery{
			Build: core.ScanSpec{Rel: b, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
			Probe: core.ScanSpec{Rel: r, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
			Mode: jm,
		})
		fmt.Fprintf(stdout, "joinABprime (%s): %d tuples in %.3fs simulated; overflow resolutions: %d\n\n",
			*mode, res.Tuples, res.Elapsed.Seconds(), res.Overflows)
	}
	m.WriteUtilization(stdout, before)

	if res.Diag != nil {
		fmt.Fprintf(stdout, "\nverdict: %s\n", res.Diag)
	}
	if evs := col.Of(trace.KindFault, trace.KindFailover); len(evs) > 0 {
		fmt.Fprintf(stdout, "\nfaults:\n")
		for _, e := range evs {
			if e.Kind == trace.KindFault {
				fmt.Fprintf(stdout, "  %9.3fs  %s node %d\n", float64(e.At)/1e6, e.Class, e.Node)
			} else {
				fmt.Fprintf(stdout, "  %9.3fs  failover %s (attempt %d)\n", float64(e.At)/1e6, e.Class, e.N)
			}
		}
	}
	if phases := col.MergedPhases(); len(phases) > 0 {
		fmt.Fprintf(stdout, "\nphases:\n")
		for _, ph := range phases {
			v := col.DiagnoseSpan(ph)
			fmt.Fprintf(stdout, "  %-16s %9.3fs  %s\n", ph.ID, float64(ph.Dur())/1e6, v)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "gammatrace: %v\n", err)
			return 1
		}
		if err := col.WriteJSONL(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "gammatrace: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "gammatrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %d events to %s\n", col.Len(), *out)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
