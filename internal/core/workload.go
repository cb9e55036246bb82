package core

import (
	"fmt"
	"sort"

	"gamma/internal/sim"
)

// This file is the closed-loop multiuser workload driver: N simulated
// terminals each issue a stream of queries drawn from a deterministic
// per-terminal RNG, each submitted as soon as the terminal's previous one
// completes — the classic closed-loop throughput harness (Gray, "A Measure
// of Transaction Processing 20 Years Later") at full pressure. It reports
// throughput (queries/sec of simulated time), mean and p95 response time,
// and disk/CPU utilization, the axes the shared-scan experiment sweeps
// against multiprogramming level.

// WorkloadSpec describes one closed-loop multiuser run.
type WorkloadSpec struct {
	// Terminals is the number of concurrent simulated users: the
	// multiprogramming level.
	Terminals int
	// PerTerminal is how many queries each terminal issues back to back.
	PerTerminal int
	// Ramp staggers session starts: each terminal sleeps an RNG-drawn
	// offset in [0, Ramp) before its first query, so the machine sees
	// phase-shifted arrivals (real users are not phase-locked) rather than
	// a simultaneous stampede at t=0.
	Ramp sim.Dur
	// Seed derives every terminal's private RNG stream, so a run is a pure
	// function of (machine state, spec).
	Seed uint64
	// Make builds terminal term's q-th query. rng is the terminal's
	// deterministic generator; drawing from it is how workloads mix query
	// types and predicate ranges.
	Make func(term, q int, rng func() uint64) ConcurrentQuery
}

// WorkloadResult aggregates one closed-loop run.
type WorkloadResult struct {
	Queries int     // queries completed (Terminals × PerTerminal)
	Tuples  int     // result tuples across all queries
	Elapsed sim.Dur // first submission to last completion

	Throughput   float64 // queries per simulated second
	MeanResponse sim.Dur // submission to completion
	P95Response  sim.Dur

	// Responses holds every query's response time, terminal-major:
	// Responses[term*PerTerminal+q]. Byte-identical across reruns.
	Responses []sim.Dur

	// Completions holds every query's completion instant in completion
	// order, so availability experiments can compute windowed throughput
	// (and its dip around a fault) after the fact.
	Completions []sim.Time

	// Availability classification: Clean queries saw only primary copies,
	// Degraded queries completed correctly but read at least one backup (or
	// retried past a mid-query failure), Failed queries ended with a typed
	// error (no readable copy / retries exhausted). Clean+Degraded+Failed ==
	// Queries. Failed queries contribute no tuples.
	Clean    int
	Degraded int
	Failed   int

	// Counters is the machine's activity over the run; CPUUtil and DiskUtil
	// over Elapsed give its mean processor and drive utilization, and
	// Verdict the resource that bound the mix (its queries have no verdict
	// of their own).
	Counters Counters
}

// splitmix64 is the per-terminal RNG: tiny, seedable, and ours — workload
// determinism must not depend on math/rand's version-to-version stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// RunWorkload executes one closed-loop multiuser run to completion and
// returns its aggregate metrics. Pools are reset once at the start (the
// steady-state mix then warms them as a real server would); the simulated
// clock is NOT reset, so a workload composes with earlier queries on the
// same machine.
func (m *Machine) RunWorkload(spec WorkloadSpec) WorkloadResult {
	if spec.Terminals <= 0 {
		panic("core: RunWorkload needs at least one terminal")
	}
	if spec.PerTerminal <= 0 {
		panic("core: RunWorkload needs PerTerminal >= 1")
	}
	if spec.Make == nil {
		panic("core: RunWorkload needs a Make function")
	}
	m.ResetPools()
	before := m.Counters()

	total := spec.Terminals * spec.PerTerminal
	responses := make([]sim.Dur, total)
	completions := make([]sim.Time, 0, total)
	start := m.Sim.Now()
	var lastDone sim.Time
	tuples := 0
	clean, degraded, failed := 0, 0, 0
	for term := 0; term < spec.Terminals; term++ {
		term := term
		state := spec.Seed + uint64(term)*0x9E3779B97F4A7C15 + 1
		rng := func() uint64 { return splitmix64(&state) }
		m.Sim.Spawn(fmt.Sprintf("terminal%d", term), func(p *sim.Proc) {
			if spec.Ramp > 0 {
				p.Sleep(sim.Dur(rng() % uint64(spec.Ramp)))
			}
			for q := 0; q < spec.PerTerminal; q++ {
				cq := spec.Make(term, q, rng)
				submitted := p.Now()
				var res Result
				done := false
				doneQ := m.Sim.NewWaitQ("query-done")
				m.launchQuery(&res, m.concurrentBody(cq, &res), func() {
					done = true
					doneQ.WakeOne()
				})
				for !done {
					doneQ.Park(p)
				}
				now := p.Now()
				responses[term*spec.PerTerminal+q] = now - submitted
				completions = append(completions, now)
				if now > lastDone {
					lastDone = now
				}
				switch {
				case res.Err != nil:
					failed++
				case res.Degraded || res.Attempts > 1:
					degraded++
					tuples += res.Tuples
				default:
					clean++
					tuples += res.Tuples
				}
				if res.ResultName != "" {
					m.Drop(res.ResultName)
				}
			}
		})
	}
	m.Sim.Run()

	out := WorkloadResult{
		Queries:     total,
		Tuples:      tuples,
		Elapsed:     lastDone - start,
		Responses:   responses,
		Completions: completions,
		Clean:       clean,
		Degraded:    degraded,
		Failed:      failed,
		Counters:    m.Counters().Sub(before),
	}
	if out.Elapsed > 0 {
		out.Throughput = float64(total) / out.Elapsed.Seconds()
	}
	var sum sim.Dur
	for _, r := range responses {
		sum += r
	}
	out.MeanResponse = sum / sim.Dur(total)
	sorted := append([]sim.Dur(nil), responses...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (total*95 + 99) / 100
	if idx > total {
		idx = total
	}
	out.P95Response = sorted[idx-1]
	return out
}
