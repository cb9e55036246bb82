// Command gammaql is an interactive mini-QUEL shell against a simulated
// Gamma machine — Gamma's query language was an extended QUEL (§4).
//
// Usage:
//
//	gammaql [-disk 8] [-diskless 8] [-tuples 10000]
//
// The machine starts with the Wisconsin relation "tenktup" (scaled by
// -tuples) loaded with the paper's physical design, plus "bprime" at a tenth
// the size. Meta commands:
//
//	\load <name> <n> [seed]   load another Wisconsin relation
//	\relations                list catalogued relations
//	\mode local|remote|all    join operator placement
//	\help                     statement syntax
//	\quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/quel"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

const help = `statements:
  range of t is tenktup
  retrieve [into name] (t.all) [where t.unique2 < 100 and ...]
  retrieve (count(t.unique1)) [by t.ten] [where ...]
  retrieve into j (a.all) where a.unique2 = b.unique2 [and b.unique2 < 1000]
  append to tenktup (unique1 = 7, unique2 = 12)
  delete t where t.unique1 = 55
  replace t (ten = 3) where t.unique1 = 55
attributes: unique1 unique2 two four ten twenty onePercent tenPercent
            twentyPercent fiftyPercent unique3 evenOnePercent oddOnePercent`

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gammaql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nDisk := fs.Int("disk", 8, "processors with disks")
	nDiskless := fs.Int("diskless", 8, "diskless processors")
	tuples := fs.Int("tuples", 10000, "cardinality of the preloaded relation")
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
		err = fmt.Errorf("-tuples %d: need at least 10, so bprime (a tenth) is not empty", *tuples)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gammaql: %v\n", err)
		fs.Usage()
		return 2
	}

	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, *nDisk, *nDiskless)
	u1 := rel.Unique1
	m.Load(core.LoadSpec{
		Name: "tenktup", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(*tuples, 1))
	m.Load(core.LoadSpec{Name: "bprime", Strategy: core.Hashed, PartAttr: rel.Unique1},
		wisconsin.Generate(*tuples/10, 7))

	ses := quel.NewSession(m)
	fmt.Fprintf(stdout, "gammaql: %d disk + %d diskless processors; relations: %s\n",
		*nDisk, *nDiskless, strings.Join(m.Relations(), ", "))
	fmt.Fprintln(stdout, `type \help for syntax, \quit to exit`)

	sc := bufio.NewScanner(stdin)
	fmt.Fprint(stdout, "gamma> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, `\`):
			if done := meta(stdout, m, ses, line); done {
				return 0
			}
		default:
			out, err := ses.Exec(line)
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
			} else if out.Message != "" {
				fmt.Fprintln(stdout, out.Message)
			}
		}
		fmt.Fprint(stdout, "gamma> ")
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func meta(stdout io.Writer, m *core.Machine, ses *quel.Session, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\quit`, `\q`:
		return true
	case `\help`:
		fmt.Fprintln(stdout, help)
	case `\relations`:
		for _, name := range m.Relations() {
			r, _ := m.Relation(name)
			fmt.Fprintf(stdout, "  %-16s %8d tuples  %s on %s\n", name, r.Count(), r.Strategy, r.PartAttr)
		}
	case `\mode`:
		if len(fields) < 2 {
			fmt.Fprintln(stdout, "usage: \\mode local|remote|all")
			break
		}
		switch fields[1] {
		case "local":
			ses.Mode = core.Local
		case "remote":
			ses.Mode = core.Remote
		case "all":
			ses.Mode = core.AllNodes
		default:
			fmt.Fprintln(stdout, "usage: \\mode local|remote|all")
		}
	case `\load`:
		if len(fields) < 3 {
			fmt.Fprintln(stdout, "usage: \\load <name> <tuples> [seed]")
			break
		}
		if _, taken := m.Relation(fields[1]); taken {
			fmt.Fprintf(stdout, "error: \\load %s: %v\n", fields[1], core.ErrNameTaken)
			break
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			fmt.Fprintln(stdout, "bad tuple count")
			break
		}
		seed := uint64(1)
		if len(fields) > 3 {
			s, err := strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				fmt.Fprintln(stdout, "bad seed")
				break
			}
			seed = s
		}
		u1 := rel.Unique1
		m.Load(core.LoadSpec{
			Name: fields[1], Strategy: core.Hashed, PartAttr: rel.Unique1,
			ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
		}, wisconsin.Generate(n, seed))
		fmt.Fprintf(stdout, "loaded %s (%d tuples)\n", fields[1], n)
	default:
		fmt.Fprintln(stdout, "unknown meta command; try \\help")
	}
	return false
}
