// Package fault schedules deterministic hardware failures against the
// simulation clock. It is the composition layer between the machine's
// failure entry points (core.Machine.CrashDisk, FailDrive, NICOutage) and
// experiments: a Schedule is armed once, the injections fire at exact
// simulated instants, and because the simulation is deterministic the same
// seed plus the same schedule always produces the same run — byte-identical
// traces included.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gamma/internal/core"
	"gamma/internal/sim"
)

// Kind is the failure mode of one injection.
type Kind int

const (
	// NodeCrash fails a disk site completely: processor, ports, and drive.
	// Queries fail over to the site's chained-declustered backups.
	NodeCrash Kind = iota
	// DriveFail fails only the site's drive; the processor survives, so
	// operators report the loss immediately instead of timing out.
	DriveFail
	// NICOutage blocks a node's network interface for Dur; traffic queues
	// behind the outage and drains afterwards. No failover is involved.
	NICOutage
	// NodeOutage crashes a disk site like NodeCrash, then rejoins it Dur
	// later: the node comes back with a cold buffer pool and serves its
	// fragments again (a transient power loss or partition, against
	// NodeCrash's permanent loss).
	NodeOutage
)

func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case DriveFail:
		return "drive-fail"
	case NICOutage:
		return "nic-outage"
	case NodeOutage:
		return "outage"
	default:
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
}

// Injection is one scheduled failure.
type Injection struct {
	At   sim.Time // simulated instant the failure takes effect
	Kind Kind
	// Site is a disk-site index (NodeCrash, DriveFail, NodeOutage) or a
	// node ID (NICOutage, which can hit any processor).
	Site int
	// Dur is the outage length (NICOutage and NodeOutage only).
	Dur sim.Dur
}

func (in Injection) String() string {
	s := fmt.Sprintf("%s@%d t=%.3fs", in.Kind, in.Site, float64(in.At)/float64(sim.Second))
	if in.Kind == NICOutage || in.Kind == NodeOutage {
		s += fmt.Sprintf(" for %.3fs", float64(in.Dur)/float64(sim.Second))
	}
	return s
}

// Schedule is a fault-injection plan: the failover detection timeout and
// the failures to stage.
type Schedule struct {
	// Detect is the scheduler's operator-silence timeout; <= 0 selects
	// core.DefaultFailoverDetect.
	Detect sim.Dur
	// Injections fire in At order (the simulator orders same-instant
	// events by scheduling order, i.e. slice order here).
	Injections []Injection
}

// Crash returns a node-crash injection against a disk site.
func Crash(at sim.Time, site int) Injection {
	return Injection{At: at, Kind: NodeCrash, Site: site}
}

// BadDrive returns a drive-failure injection against a disk site.
func BadDrive(at sim.Time, site int) Injection {
	return Injection{At: at, Kind: DriveFail, Site: site}
}

// Outage returns a transient node-outage injection against a disk site: a
// crash at `at` and a cold rejoin d later.
func Outage(at sim.Time, site int, d sim.Dur) Injection {
	return Injection{At: at, Kind: NodeOutage, Site: site, Dur: d}
}

// NICStall returns a NIC-outage injection against a node ID (the network
// interface stalls for d; no failover is involved).
func NICStall(at sim.Time, node int, d sim.Dur) Injection {
	return Injection{At: at, Kind: NICOutage, Site: node, Dur: d}
}

// SiteError reports an injection aimed past the machine: a disk-site index
// beyond its disk processors, or a node ID beyond its processors.
type SiteError struct {
	Injection Injection
	Limit     int // disk sites, or nodes for a NIC outage
}

func (e *SiteError) Error() string {
	what := "disk sites"
	if e.Injection.Kind == NICOutage {
		what = "nodes"
	}
	return fmt.Sprintf("fault %s: the machine has %d %s", e.Injection, e.Limit, what)
}

// Arm enables mid-query failover on the machine and stages every injection
// as a simulator event. Call it before the queries whose lifetime the
// schedule overlaps; injections whose instant has already passed fire
// immediately (the simulator clamps to now). A schedule naming a site or
// node the machine lacks is a *SiteError, and nothing is staged.
func Arm(m *core.Machine, s Schedule) error {
	for _, in := range s.Injections {
		limit := len(m.Disk)
		if in.Kind == NICOutage {
			limit = len(m.Net.Nodes())
		}
		if in.Site < 0 || in.Site >= limit {
			return &SiteError{Injection: in, Limit: limit}
		}
	}
	m.EnableFailover(s.Detect)
	for _, in := range s.Injections {
		in := in
		m.Sim.At(in.At, func() {
			switch in.Kind {
			case NodeCrash:
				m.CrashDisk(in.Site)
			case DriveFail:
				m.FailDrive(in.Site)
			case NICOutage:
				m.NICOutage(in.Site, in.Dur)
			case NodeOutage:
				m.OutageDisk(in.Site, in.Dur)
			default:
				panic("fault: unknown injection kind " + in.Kind.String())
			}
		})
	}
	return nil
}

// maxSpecSeconds bounds the times a schedule spec may carry: one simulated
// year, far beyond any experiment, and small enough that the
// seconds-to-microseconds conversion can never overflow or lose the
// fractional microsecond to float error.
const maxSpecSeconds = 365 * 24 * 3600.0

// secsToDur converts spec seconds to simulated microseconds, rounding to
// the nearest microsecond. Rounding (not truncation) makes the conversion
// exact for every decimal spelling with up to six fractional digits, which
// is what lets FormatInjection round-trip losslessly.
func secsToDur(sec float64) sim.Dur {
	return sim.Dur(math.Round(sec * float64(sim.Second)))
}

// parseSpecSeconds parses a non-negative, finite, bounded seconds value.
// NaN, infinities, and out-of-range magnitudes are rejected — a schedule
// instant must always land on a representable simulated microsecond.
func parseSpecSeconds(s string) (float64, error) {
	sec, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(sec) || sec < 0 || sec > maxSpecSeconds {
		return 0, fmt.Errorf("seconds %q out of range [0, %g]", s, maxSpecSeconds)
	}
	return sec, nil
}

// ParseInjection parses the command-line form "site@seconds" (node crash),
// "drive:site@seconds", "nic:node@seconds+dur", or "outage:site@seconds+dur",
// e.g. "2@1.5", "nic:3@0.5+0.2", or "outage:1@2+5".
func ParseInjection(s string) (Injection, error) {
	kind := NodeCrash
	rest := s
	if k, r, ok := strings.Cut(s, ":"); ok {
		switch k {
		case "crash":
			kind = NodeCrash
		case "drive":
			kind = DriveFail
		case "nic":
			kind = NICOutage
		case "outage":
			kind = NodeOutage
		default:
			return Injection{}, fmt.Errorf("unknown fault kind %q (want crash, drive, nic, or outage)", k)
		}
		rest = r
	}
	siteStr, atStr, ok := strings.Cut(rest, "@")
	if !ok {
		return Injection{}, fmt.Errorf("fault %q: want site@seconds", s)
	}
	site, err := strconv.Atoi(siteStr)
	if err != nil || site < 0 {
		return Injection{}, fmt.Errorf("fault %q: bad site %q", s, siteStr)
	}
	var dur sim.Dur
	if kind == NICOutage || kind == NodeOutage {
		var durStr string
		atStr, durStr, ok = strings.Cut(atStr, "+")
		if !ok {
			return Injection{}, fmt.Errorf("fault %q: %s wants site@seconds+dur", s, kind)
		}
		durSec, err := parseSpecSeconds(durStr)
		if err != nil || durSec <= 0 {
			return Injection{}, fmt.Errorf("fault %q: bad outage duration %q", s, durStr)
		}
		dur = secsToDur(durSec)
		if dur == 0 {
			return Injection{}, fmt.Errorf("fault %q: outage duration %q rounds to zero", s, durStr)
		}
	}
	atSec, err := parseSpecSeconds(atStr)
	if err != nil {
		return Injection{}, fmt.Errorf("fault %q: bad time %q", s, atStr)
	}
	return Injection{
		At:   sim.Time(secsToDur(atSec)),
		Kind: kind,
		Site: site,
		Dur:  dur,
	}, nil
}

// FormatInjection renders an injection in the canonical spec form
// ParseInjection accepts: explicit kind prefix, seconds with the minimal
// decimal spelling. Parse∘Format is the identity on every injection Parse
// can produce (the fuzz harness pins this).
func FormatInjection(in Injection) string {
	sec := func(d sim.Dur) string {
		return strconv.FormatFloat(float64(d)/float64(sim.Second), 'f', -1, 64)
	}
	var kind string
	switch in.Kind {
	case NodeCrash:
		kind = "crash"
	case DriveFail:
		kind = "drive"
	case NICOutage:
		return fmt.Sprintf("nic:%d@%s+%s", in.Site, sec(in.At), sec(in.Dur))
	case NodeOutage:
		return fmt.Sprintf("outage:%d@%s+%s", in.Site, sec(in.At), sec(in.Dur))
	default:
		panic("fault: unknown injection kind " + in.Kind.String())
	}
	return fmt.Sprintf("%s:%d@%s", kind, in.Site, sec(in.At))
}
