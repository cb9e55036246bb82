package core

import "gamma/internal/sim"

// The frozen benchmark harness (benchmark/) still calls the closed-loop
// terminal workload and the scan-sharing switch, which are gone: concurrent
// queries run through RunConcurrent. This file keeps exactly what the harness
// reads, each symbol with the harness line that reads it. Delete it when
// benchmark/ may be edited.

// EnableSharedScans does nothing (benchmark/probes.go:446).
func (m *Machine) EnableSharedScans() {}

// WorkloadSpec describes Terminals × PerTerminal queries
// (benchmark/probes.go:451–459).
type WorkloadSpec struct {
	Terminals   int
	PerTerminal int
	Ramp        sim.Dur // accepted and ignored
	// Seed derives each terminal's splitmix64 stream, which Make draws from
	// to build terminal term's q-th query.
	Seed uint64
	Make func(term, q int, rng func() uint64) ConcurrentQuery
}

// WorkloadResult counts a RunWorkload's queries, their result tuples and
// the queries that ended with a typed error (benchmark/probes.go:448,
// 461–463).
type WorkloadResult struct {
	Queries, Tuples, Failed int
}

// RunWorkload builds every terminal's queries and runs them all in one
// RunConcurrent call, dropping any relation they store
// (benchmark/probes.go:451).
func (m *Machine) RunWorkload(spec WorkloadSpec) WorkloadResult {
	var qs []ConcurrentQuery
	for term := range spec.Terminals {
		state := spec.Seed + uint64(term)*0x9E3779B97F4A7C15 + 1
		rng := func() uint64 { return splitmix64(&state) }
		for q := range spec.PerTerminal {
			qs = append(qs, spec.Make(term, q, rng))
		}
	}
	out := WorkloadResult{Queries: len(qs)}
	for _, res := range m.RunConcurrent(qs) {
		if res.Err != nil {
			out.Failed++
		} else {
			out.Tuples += res.Tuples
		}
		if res.ResultName != "" {
			m.Drop(res.ResultName)
		}
	}
	return out
}
