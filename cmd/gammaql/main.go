// Command gammaql runs QUEL statements — Gamma's query language was an
// extended QUEL (§4) — on a simulated Gamma machine, and after each query
// reports which resource bound it: per-node utilization, the bottleneck
// verdict and a verdict per join phase, the diagnostic axis of §5.2 and §6.2.
//
//	gammaql [-disk 8] [-diskless 8] [-tuples 100000] [-pagesize 4096]
//	        [-fault spec]... [-mirror] [-out trace.jsonl] [-e stmt]...
//
// The machine holds "A" (-tuples Wisconsin tuples, hash declustered on
// unique1, clustered on unique1, a dense index on unique2) and the heap
// "Bprime" a tenth the size. Each -e is a statement or meta command, run in
// order until one fails (exit 1); without -e, stdin is read line by line.
// -fault (repeatable; see fault.ParseInjection) loads chained-declustered
// backups and arms mid-query failover; -mirror loads the backups alone. -out
// exports the event stream of the whole run as JSONL. Meta commands:
//
//	\load <name> <n> [seed]   load another Wisconsin relation, indexed as A is
//	\relations                list catalogued relations
//	\mode local|remote|all    join operator placement
//	\help                     statement syntax
//	\quit
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/fault"
	"gamma/internal/quel"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

const help = `statements:
  range of a is A
  retrieve [into name] (a.all) [where a.unique2 < 100 and ...]
  retrieve (count(a.unique1)) [by a.ten] [where ...]
  retrieve into j (a.all) where a.unique2 = b.unique2 [and b.unique2 < 1000]
  append to A (unique1 = 7, unique2 = 12)
  delete a where a.unique1 = 55
  replace a (ten = 3) where a.unique1 = 55
attributes: unique1 unique2 two four ten twenty onePercent tenPercent
            twentyPercent fiftyPercent unique3 evenOnePercent oddOnePercent`

// indexed is the physical design of A and of every \load: hash declustered
// on unique1 with a clustered index on unique1 and a dense index on unique2,
// the paper's benchmark database (§4).
func indexed(name string) core.LoadSpec {
	u1 := rel.Unique1
	return core.LoadSpec{
		Name: name, Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}
}

// shell is one machine, its QUEL session, and the trace of each statement.
type shell struct {
	m      *core.Machine
	ses    *quel.Session
	stdout io.Writer
	keep   bool               // keep the traces, for -out
	traces []*trace.Collector // in statement order
	last   *trace.Collector   // the last statement's trace
}

// newShell builds the machine and preloads A and Bprime.
func newShell(prm config.Params, nDisk, nDiskless, tuples int, mirror bool, stdout io.Writer) *shell {
	m := core.NewMachine(sim.New(), &prm, nDisk, nDiskless)
	if mirror {
		m.EnableMirroring()
	}
	m.Load(indexed("A"), wisconsin.Generate(tuples, 1))
	m.Load(core.LoadSpec{Name: "Bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(tuples/10, 7))
	return &shell{m: m, ses: quel.NewSession(m), stdout: stdout}
}

// exec runs one line, a meta command or a statement; quit reports \quit.
func (sh *shell) exec(line string) (quit bool, err error) {
	if strings.HasPrefix(line, `\`) {
		return sh.meta(line)
	}
	_, err = sh.query(line)
	return false, err
}

// phases is a statement's sink: it forwards every event to the statement's
// collector and snapshots the machine's counters at each phase label's
// ("join1/build") first start and latest done on any site, so each phase is
// classified over its own window.
type phases struct {
	*trace.Collector
	m           *core.Machine
	labels      []string // in first-start order
	start, done map[string]core.Counters
}

func (ph *phases) Emit(e trace.Event) {
	ph.Collector.Emit(e)
	switch e.Kind {
	case trace.KindPhaseStart:
		label := e.Op + "/" + e.Class
		if _, ok := ph.start[label]; !ok {
			ph.labels = append(ph.labels, label)
			ph.start[label] = ph.m.Counters()
		}
	case trace.KindPhaseDone:
		ph.done[e.Op+"/"+e.Class] = ph.m.Counters()
	}
}

// query runs one statement into a trace of its own, prints its result line
// and, if it ran a query, the report of what bound it. Tracing costs no
// simulated time.
func (sh *shell) query(stmt string) (quel.Output, error) {
	col := trace.NewCollector()
	ph := &phases{Collector: col, m: sh.m, start: map[string]core.Counters{}, done: map[string]core.Counters{}}
	sh.last = col
	sh.m.Sim.SetSink(ph)
	if sh.keep {
		sh.traces = append(sh.traces, col)
	}
	before := sh.m.Counters()
	out, err := sh.ses.Exec(stmt)
	if err != nil {
		return out, err
	}
	w := sh.stdout
	if out.Message != "" {
		fmt.Fprintln(w, out.Message)
	}
	res := out.Result
	if res == nil {
		return out, nil
	}
	fmt.Fprintln(w)
	sh.m.Counters().Sub(before).WriteUtilization(w)
	fmt.Fprintf(w, "\nverdict: %s\n", res.Counters.Verdict())
	if evs := col.Of(trace.KindFault, trace.KindFailover); len(evs) > 0 {
		fmt.Fprintf(w, "\nfaults:\n")
		for _, e := range evs {
			if e.Kind == trace.KindFault {
				fmt.Fprintf(w, "  %9.3fs  %s node %d\n", float64(e.At)/1e6, e.Class, e.Node)
			} else {
				fmt.Fprintf(w, "  %9.3fs  failover %s (attempt %d)\n", float64(e.At)/1e6, e.Class, e.N)
			}
		}
	}
	if len(ph.done) > 0 {
		fmt.Fprintf(w, "\nphases:\n")
		for _, label := range ph.labels {
			if done, ok := ph.done[label]; ok {
				d := done.Sub(ph.start[label])
				fmt.Fprintf(w, "  %-16s %9.3fs  %s\n", label, d.Clock.Seconds(), d.Verdict())
			}
		}
	}
	return out, nil
}

func (sh *shell) meta(line string) (quit bool, err error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\quit`, `\q`:
		return true, nil
	case `\help`:
		fmt.Fprintln(sh.stdout, help)
	case `\relations`:
		for _, name := range sh.m.Relations() {
			r, _ := sh.m.Relation(name)
			fmt.Fprintf(sh.stdout, "  %-16s %8d tuples  %s on %s\n", name, r.Count(), r.Strategy, r.PartAttr)
		}
	case `\mode`:
		modes := map[string]core.JoinMode{"local": core.Local, "remote": core.Remote, "all": core.AllNodes}
		mode, ok := modes[strings.Join(fields[1:], " ")]
		if !ok {
			return false, fmt.Errorf(`%s: usage: \mode local|remote|all`, line)
		}
		sh.ses.Mode = mode
	case `\load`:
		if len(fields) < 3 {
			return false, fmt.Errorf(`usage: \load <name> <tuples> [seed]`)
		}
		name := fields[1]
		if _, taken := sh.m.Relation(name); taken {
			return false, fmt.Errorf(`\load %s: %w`, name, core.ErrNameTaken)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			return false, fmt.Errorf(`\load %s: bad tuple count %q`, name, fields[2])
		}
		seed := uint64(1)
		if len(fields) > 3 {
			if seed, err = strconv.ParseUint(fields[3], 10, 64); err != nil {
				return false, fmt.Errorf(`\load %s: bad seed %q`, name, fields[3])
			}
		}
		sh.m.Load(indexed(name), wisconsin.Generate(n, seed))
		fmt.Fprintf(sh.stdout, "loaded %s (%d tuples)\n", name, n)
	default:
		return false, fmt.Errorf(`unknown meta command %s; try \help`, fields[0])
	}
	return false, nil
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gammaql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nDisk := fs.Int("disk", 8, "processors with disks")
	nDiskless := fs.Int("diskless", 8, "diskless processors")
	tuples := fs.Int("tuples", 100000, "cardinality of A (Bprime holds a tenth)")
	pageSize := fs.Int("pagesize", 4096, "disk page size in bytes")
	var faults []fault.Injection
	fs.Func("fault", "inject a failure: site@sec, drive:site@sec, nic:node@sec+dur or outage:site@sec+dur (repeatable)", func(s string) error {
		in, err := fault.ParseInjection(s)
		faults = append(faults, in)
		return err
	})
	mirror := fs.Bool("mirror", false, "load chained-declustered backup fragments (implied by -fault)")
	out := fs.String("out", "", "write the structured event stream as JSONL to this file")
	var stmts []string
	fs.Func("e", "run this statement or meta command instead of reading stdin (repeatable)", func(s string) error {
		stmts = append(stmts, s)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *nDisk < 1:
		err = fmt.Errorf("-disk %d: need at least one disk processor", *nDisk)
	case *nDiskless < 0:
		err = fmt.Errorf("-diskless %d: must not be negative", *nDiskless)
	case *tuples < 10:
		err = fmt.Errorf("-tuples %d: need at least 10, so Bprime (a tenth) is not empty", *tuples)
	case *pageSize <= 0:
		err = fmt.Errorf("-pagesize %d: must be positive", *pageSize)
	}
	var sh *shell
	if err == nil {
		prm := config.Default()
		prm.PageBytes = *pageSize
		sh = newShell(prm, *nDisk, *nDiskless, *tuples, len(faults) > 0 || *mirror, stdout)
		if len(faults) > 0 {
			err = fault.Arm(sh.m, fault.Schedule{Injections: faults})
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "gammaql: %v\n", err)
		fs.Usage()
		return 2
	}
	sh.keep = *out != ""

	fmt.Fprintf(stdout, "gammaql: %d disk + %d diskless processors; relations: %s\n",
		*nDisk, *nDiskless, strings.Join(sh.m.Relations(), ", "))
	// -e statements take stdin's place: one line handler serves both.
	interactive := len(stmts) == 0
	if interactive {
		fmt.Fprintln(stdout, `type \help for syntax, \quit to exit`)
	} else {
		stdin = strings.NewReader(strings.Join(stmts, "\n"))
	}
	prompt := func() {
		if interactive {
			fmt.Fprint(stdout, "gamma> ")
		}
	}
	code := 0
	sc := bufio.NewScanner(stdin)
	for prompt(); sc.Scan(); prompt() {
		quit, err := sh.exec(strings.TrimSpace(sc.Text()))
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
			if !interactive {
				code = 1
				break
			}
		}
		if quit {
			break
		}
	}
	if *out != "" {
		var jsonl bytes.Buffer
		events := 0
		for _, col := range sh.traces {
			col.WriteJSONL(&jsonl) // a bytes.Buffer does not fail
			events += col.Len()
		}
		if err := os.WriteFile(*out, jsonl.Bytes(), 0o644); err != nil {
			fmt.Fprintf(stderr, "gammaql: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %d events to %s\n", events, *out)
	}
	return code
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
