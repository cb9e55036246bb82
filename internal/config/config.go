// Package config holds the calibrated cost model for the simulated Gamma and
// Teradata machines.
//
// Every constant is either taken directly from the paper (§2, §3, §5, §6) or
// calibrated so that the standard configuration (8 disk processors, 4 KB
// pages) reproduces the absolute response times of Tables 1–3 to within a
// small factor. Derivations are given inline; EXPERIMENTS.md records the
// resulting paper-vs-measured comparison for every table and figure.
package config

import "gamma/internal/sim"

// CPU describes a processor.
type CPU struct {
	// MIPS is the instruction rate in millions of instructions per second.
	// The VAX 11/750 is rated at 0.6 MIPS (§5.2.2).
	MIPS float64
}

// Time converts an instruction count to simulated time.
func (c CPU) Time(instr int) sim.Dur {
	if instr <= 0 {
		return 0
	}
	return sim.Dur(float64(instr) / c.MIPS)
}

// Disk describes a disk drive. The model charges every page request a
// positioning cost plus a size-proportional transfer cost.
type Disk struct {
	// SeqPos is the positioning cost of a sequential page request (same
	// file, next page). WiSS issues page requests one at a time with no
	// device-level read-ahead, so a sequential request typically misses a
	// full revolution. Calibrated so a 4 KB sequential page read costs
	// ~17.5 ms, which reproduces Table 1's non-indexed selections
	// (589 pages / 8 drives at 10k tuples -> 1.63 s; 10x at 100k).
	SeqPos sim.Dur
	// RandPos is the positioning cost of a random page request: average
	// seek plus half-rotation. §5.2.2 puts the random seek near 13 ms
	// (the transfer time of a 32 KB page); half a revolution of a 3600
	// RPM drive adds ~8.3 ms.
	RandPos sim.Dur
	// USPerKB is transfer time per kilobyte. §5.2.2: a 32 KB page
	// transfers in 13 ms -> 406 us/KB (~2.46 MB/s).
	USPerKB sim.Dur
}

// TransferTime returns the media transfer time for n bytes.
func (d Disk) TransferTime(bytes int) sim.Dur {
	return sim.Dur(int64(d.USPerKB) * int64(bytes) / 1024)
}

// Net describes the interconnect: an 80 Mbit/s token ring reached through a
// 4 Mbit/s Unibus on each node (§2, §5.2.1).
type Net struct {
	// PacketBytes is the network packet size; §5.2.1 gives 2 KB.
	PacketBytes int
	// NICUSPerKB is the per-node memory-to-network path cost: the 4
	// Mbit/s Unibus moves 1 KB in 2048 us (500 KB/s).
	NICUSPerKB sim.Dur
	// RingUSPerKB is the shared 80 Mbit/s token ring: 1 KB in 102 us.
	RingUSPerKB sim.Dur
	// CtlMsg is the end-to-end cost of a small inter-node control
	// message; §6.2.3 assumes 7 ms.
	CtlMsg sim.Dur
	// Window is the sliding-window depth of the NOSE datagram protocol:
	// the number of unacknowledged packets a sender may have in flight
	// per destination before it stalls.
	Window int
	// InstrPerPacket is the protocol-processing cost (per side) of a data
	// packet: checksums, window bookkeeping, wakeups.
	InstrPerPacket int
	// InstrPerLocalMsg is the cost of a short-circuited (same node)
	// message: the communications software bypasses the NIC entirely (§2).
	InstrPerLocalMsg int
	// MinLatency is the minimum end-to-end delivery time of any remote
	// message — data, EOS, or control: no arrival event lands closer than
	// MinLatency after its send. Default() derives it from the Unibus +
	// ring service time of one full packet.
	MinLatency sim.Dur
}

// NICTime returns the Unibus transfer time for n bytes.
func (n Net) NICTime(bytes int) sim.Dur {
	return sim.Dur(int64(n.NICUSPerKB) * int64(bytes) / 1024)
}

// RingTime returns the token-ring transit time for n bytes.
func (n Net) RingTime(bytes int) sim.Dur {
	return sim.Dur(int64(n.RingUSPerKB) * int64(bytes) / 1024)
}

// Engine describes per-operation CPU costs of the Gamma software and the
// query startup path. Instruction counts are calibrated, not measured.
type Engine struct {
	// InstrPerTupleScan: fetch a tuple from a page slot and evaluate a
	// compiled range predicate. Calibrated so 0% selections become CPU
	// bound at 16 KB pages (Figures 5-6).
	InstrPerTupleScan int
	// InstrPerTupleRoute: apply a split-table hash and copy the tuple
	// into an outgoing packet buffer.
	InstrPerTupleRoute int
	// InstrPerTupleStore: receive a result tuple and place it in a page
	// buffer, including record-id assignment.
	InstrPerTupleStore int
	// InstrPerTupleBuild: insert a tuple into a join hash table.
	InstrPerTupleBuild int
	// InstrPerTupleProbe: probe the hash table and, on a match, compose
	// the composite result tuple.
	InstrPerTupleProbe int
	// InstrPerTupleAgg: fold one tuple into an aggregate.
	InstrPerTupleAgg int
	// InstrPerPageIO: initiate one page I/O (buffer pool and WiSS path).
	InstrPerPageIO int
	// InstrPerIndexNode: binary-search one B-tree node.
	InstrPerIndexNode int
	// MsgsPerOperatorInit: control messages needed to schedule one
	// operator on one node; §6.2.3 gives four.
	MsgsPerOperatorInit int
	// HostStartup: parse, optimize, compile, and dispatch a query from
	// the host to an idle scheduler. Calibrated from the single-tuple
	// select floor of Table 1 (0.15 s) minus the per-node costs.
	HostStartup sim.Dur
}

// Memory describes per-node memory (§2: 2 MB per processor).
type Memory struct {
	// NodeBytes is physical memory per node. Half of it is a Teradata AMP's
	// sort memory in the join's sort phase.
	NodeBytes int
	// BufferPoolBytes is the memory dedicated to the buffer pool; the
	// frame count is BufferPoolBytes / PageBytes, so doubling the page
	// size halves the number of resident pages — part of why large pages
	// hurt non-clustered index plans (Figure 7).
	BufferPoolBytes int
	// JoinTableBytes is the memory available for join hash tables per
	// joining processor. §6 gives 4.8 MB total for the standard
	// configuration's joins, which run on the 8 diskless processors
	// (Remote mode) = 600 KB each.
	JoinTableBytes int
}

// Teradata describes the DBC/1012 baseline (§3) and the software behaviours
// §4-§6 identify as decisive. The 4 interface processors are folded into the
// host's startup cost, and each AMP's two disk storage units into one drive.
type Teradata struct {
	AMPs int // access module processors (20)
	// MIPS of the Intel 80286 AMP processors. Calibrated against the
	// Gamma/Teradata ratio of Table 1's non-indexed selections.
	MIPS float64
	// YNetUSPerKB: the Y-net moves 12 MB/s aggregate -> 1 KB in ~85 us.
	YNetUSPerKB sim.Dur
	// PageBytes is the AMP disk sector/page unit.
	PageBytes int
	// SeqPos, RandPos, USPerKB as for Gamma's Disk model (Hitachi 8.8"
	// 525 MB drives).
	SeqPos  sim.Dur
	RandPos sim.Dur
	USPerKB sim.Dur
	// InsertIOs is the number of I/Os the INSERT INTO recovery path
	// performs per inserted tuple (§4: "at least 3 I/Os are incurred for
	// each tuple inserted"). InstrPerInsert is the accompanying logging
	// CPU. Together they are calibrated from the Table 1 gap between the
	// 1% and 10% selections (~207 ms per stored result tuple).
	InsertIOs      int
	InstrPerInsert int
	// TempInsertIOs/InstrPerTempInsert model the redistribution phase of
	// the join algorithm: "as each AMP receives tuples, it stores them in
	// temporary files sorted in hash-key order" (§6). Calibrated from the
	// Table 2 gap between key and non-key joins (~34 ms per redistributed
	// tuple).
	TempInsertIOs      int
	InstrPerTempInsert int
	// InstrPerTupleScan / InstrPerTupleSort / InstrPerTupleMerge are the
	// per-tuple CPU costs of scans and of the redistribute+sort-merge
	// join path.
	InstrPerTupleScan  int
	InstrPerTupleSort  int
	InstrPerTupleMerge int
	// HostStartup covers AMDAHL host + IFP parse/optimize/dispatch;
	// UpdateStartup is the shorter path update queries take.
	HostStartup   sim.Dur
	UpdateStartup sim.Dur
}

// Params is the complete machine description used by a simulation run.
type Params struct {
	CPU    CPU
	Disk   Disk
	Net    Net
	Engine Engine
	Memory Memory
	Tera   Teradata

	// PageBytes is the disk page size (default 4 KB; Figures 5-8 and
	// 14-15 sweep it from 2 KB to 32 KB).
	PageBytes int
	// TupleBytes is the logical Wisconsin tuple size: thirteen 4-byte
	// integers plus three 52-byte strings = 208 bytes (§4).
	TupleBytes int
	// SlotBytes is the per-tuple page footprint including the slot entry
	// and record header. 240 bytes reproduces §5.1's "17 tuples per data
	// page" at 4 KB and "all 589 pages" for 10,000 tuples.
	SlotBytes int
	// IndexEntryBytes is the footprint of one B-tree entry (key + RID +
	// overhead), which fixes index fan-out as a function of page size.
	IndexEntryBytes int
}

// TuplesPerPage returns heap-page capacity at the configured page size.
func (p *Params) TuplesPerPage() int { return p.PageBytes / p.SlotBytes }

// TuplesPerPacket returns how many tuples ride in one network packet.
func (p *Params) TuplesPerPacket() int { return p.Net.PacketBytes / p.TupleBytes }

// IndexFanout returns B-tree node fan-out at the configured page size.
func (p *Params) IndexFanout() int { return p.PageBytes / p.IndexEntryBytes }

// Default returns the calibrated standard configuration: the paper's Gamma
// (VAX 11/750s, 4 KB pages) and Teradata (4x20x40) machines.
func Default() Params {
	p := Params{
		CPU: CPU{MIPS: 0.6},
		Disk: Disk{
			SeqPos:  15800 * sim.Microsecond,
			RandPos: 21300 * sim.Microsecond,
			USPerKB: 406 * sim.Microsecond,
		},
		Net: Net{
			PacketBytes:      2048,
			NICUSPerKB:       2048 * sim.Microsecond,
			RingUSPerKB:      102 * sim.Microsecond,
			CtlMsg:           7 * sim.Millisecond,
			Window:           4,
			InstrPerPacket:   6000,
			InstrPerLocalMsg: 300,
		},
		Engine: Engine{
			InstrPerTupleScan:   160,
			InstrPerTupleRoute:  140,
			InstrPerTupleStore:  160,
			InstrPerTupleBuild:  1000,
			InstrPerTupleProbe:  1400,
			InstrPerTupleAgg:    120,
			InstrPerPageIO:      1200,
			InstrPerIndexNode:   400,
			MsgsPerOperatorInit: 4,
			HostStartup:         40 * sim.Millisecond,
		},
		Memory: Memory{
			NodeBytes:       2 * 1024 * 1024,
			BufferPoolBytes: 256 * 1024,
			JoinTableBytes:  600 * 1024,
		},
		Tera: Teradata{
			AMPs:               20,
			MIPS:               0.5,
			YNetUSPerKB:        85 * sim.Microsecond,
			PageBytes:          8 * 1024,
			SeqPos:             14000 * sim.Microsecond,
			RandPos:            25000 * sim.Microsecond,
			USPerKB:            500 * sim.Microsecond,
			InsertIOs:          3,
			InstrPerInsert:     56000,
			TempInsertIOs:      1,
			InstrPerTempInsert: 4000,
			InstrPerTupleScan:  1520,
			InstrPerTupleSort:  400,
			InstrPerTupleMerge: 200,
			HostStartup:        1000 * sim.Millisecond,
			UpdateStartup:      500 * sim.Millisecond,
		},
		PageBytes:       4 * 1024,
		TupleBytes:      208,
		SlotBytes:       240,
		IndexEntryBytes: 16,
	}
	// The 1988 wire floor: a full packet must cross the sending Unibus and
	// the token ring before any receiver can observe it. 2048*2.048 + 2*102
	// = 4300 us.
	p.Net.MinLatency = p.Net.NICTime(p.Net.PacketBytes) + p.Net.RingTime(p.Net.PacketBytes)
	return p
}
