package config

import "gamma/internal/sim"

// Generation names a complete hardware era for the machine model: CPU
// instruction rate, disk service times, and NIC latency/bandwidth, plus the
// exchange-batching depth that era's wire makes profitable. The 1988
// generation is exactly Default(); the later generations re-run the paper's
// study on 2015-class Ethernet clusters and RDMA-class fabrics so
// trace.Diagnose can narrate where the binding resource migrates as the wire
// stops being free (Rödiger et al., "High-Speed Query Processing over
// High-Speed Networks").
//
// The simulation clock ticks in whole microseconds, so per-KB transfer rates
// saturate at 1 us/KB (~1 GB/s). Generations beyond that express their edge
// through latency (MinLatency, CtlMsg), protocol cost (InstrPerPacket), and
// batching depth instead of raw per-KB bandwidth.
type Generation struct {
	Name string
	// Desc is a one-line description used by reports.
	Desc string
	// Params returns a fresh parameter set for this generation.
	Params func() Params
}

// generations is the ordered registry (oldest first).
var generations = []Generation{
	{
		Name:   "gamma1988",
		Desc:   "VAX 11/750 (0.6 MIPS), 2.5 MB/s disks, 4 Mbit/s Unibus + 80 Mbit/s ring",
		Params: Default,
	},
	{
		Name:   "gbe2015",
		Desc:   "2015 commodity cluster: fast cores, SATA SSD, 10 GbE",
		Params: gbe2015,
	},
	{
		Name:   "rdma",
		Desc:   "RDMA-class fabric: faster cores, NVMe flash, kernel-bypass NIC",
		Params: rdma,
	},
}

// Generations lists the registered hardware generations, oldest first.
func Generations() []Generation {
	return append([]Generation(nil), generations...)
}

// ByGeneration returns a fresh parameter set for a named generation.
func ByGeneration(name string) (Params, bool) {
	for _, g := range generations {
		if g.Name == name {
			return g.Params(), true
		}
	}
	return Params{}, false
}

// GenerationNames returns the registered names, oldest generation first.
func GenerationNames() []string {
	names := make([]string, len(generations))
	for i, g := range generations {
		names[i] = g.Name
	}
	return names
}

// gbe2015 models a 2015-era commodity cluster node: fast cores (flattened to
// one effective 2000 MIPS model core — multicore parallelism and memory
// stalls folded into a single instruction stream), a SATA SSD, and switched
// 10 GbE. The wire is no longer the bottleneck; scans go disk-bound on the
// SSD and per-packet protocol CPU starts to matter, which is what makes
// tuple batching (BatchPackets > 1) pay off.
func gbe2015() Params {
	p := Default()
	p.CPU.MIPS = 2000
	p.Disk = Disk{
		SeqPos:     30 * sim.Microsecond,  // SSD request setup, no seek
		RandPos:    100 * sim.Microsecond, // SSD random-read latency
		USPerKB:    2 * sim.Microsecond,   // ~500 MB/s SATA transfer
		TrackBytes: 256 * 1024,
	}
	p.Net.NICUSPerKB = 1 * sim.Microsecond // 10 GbE, at the model's 1 us/KB floor
	p.Net.RingUSPerKB = 1 * sim.Microsecond
	p.Net.MinLatency = 20 * sim.Microsecond // kernel TCP end-to-end
	p.Net.CtlMsg = 50 * sim.Microsecond
	p.Net.Window = 64
	p.Net.BatchPackets = 16
	p.Net.FlushAfter = 200 * sim.Microsecond
	return p
}

// rdma models an RDMA-class deployment: a 5000 MIPS effective core, NVMe
// flash, and a kernel-bypass fabric with single-digit-microsecond latency.
// Protocol processing collapses (InstrPerPacket) and the exchange batches
// deeply; storage and wire approach the model's resolution floor, leaving
// per-tuple CPU work and the scheduler's serialized control path as the
// remaining bottlenecks.
func rdma() Params {
	p := gbe2015()
	p.CPU.MIPS = 5000
	p.Disk.SeqPos = 2 * sim.Microsecond
	p.Disk.RandPos = 10 * sim.Microsecond
	p.Disk.USPerKB = 1 * sim.Microsecond // ~1 GB/s NVMe (model floor)
	p.Net.MinLatency = 2 * sim.Microsecond
	p.Net.CtlMsg = 5 * sim.Microsecond
	p.Net.Window = 256
	p.Net.InstrPerPacket = 600 // zero-copy, no kernel crossing
	p.Net.InstrPerLocalMsg = 100
	p.Net.BatchPackets = 64
	p.Net.FlushAfter = 50 * sim.Microsecond
	return p
}
