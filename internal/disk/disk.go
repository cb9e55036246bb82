// Package disk models a disk drive as a FIFO resource with a positional cost
// model: every page request pays a positioning cost — sequential (same file,
// next page) or random — plus a size-proportional transfer cost.
//
// The model deliberately has no device-level read-ahead: WiSS issues one
// page request at a time, so even a "sequential" request misses most of a
// revolution (config.Disk.SeqPos). Interleaving accesses to different files
// on one drive (e.g. a selection scan and a store operator sharing a drive)
// degrades both to random positioning, which is the disk-interference effect
// behind the 1% vs 10% selection gap in Table 1.
package disk

import (
	"gamma/internal/config"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// Stats counts drive activity.
type Stats struct {
	SeqReads     int64
	RandReads    int64
	SeqWrites    int64
	RandWrites   int64
	BytesRead    int64
	BytesWritten int64
}

// Reads returns total page reads.
func (s Stats) Reads() int64 { return s.SeqReads + s.RandReads }

// Writes returns total page writes.
func (s Stats) Writes() int64 { return s.SeqWrites + s.RandWrites }

// Drive is one simulated disk drive.
type Drive struct {
	sim  *sim.Sim
	name string
	res  *sim.Resource
	cfg  config.Disk

	haveLast bool
	lastFile int
	lastPage int
	failed   bool

	stats Stats
}

// New creates a drive on s with the given cost model.
func New(s *sim.Sim, name string, cfg config.Disk) *Drive {
	return &Drive{sim: s, name: name, res: s.NewResource(name), cfg: cfg}
}

// FailedError is the panic value raised by any access to a failed drive.
// Operator processes recover it and report the loss to their scheduler,
// which fails the request over to a backup fragment.
type FailedError struct{ Drive string }

func (e FailedError) Error() string { return "disk: drive " + e.Drive + " has failed" }

// Fail marks the drive broken: every subsequent access panics with a
// FailedError. In-flight (already queued) requests complete.
func (d *Drive) Fail() { d.failed = true }

// Failed reports whether the drive has failed.
func (d *Drive) Failed() bool { return d.failed }

// Repair returns a failed drive to service (a node rejoining after a
// transient outage): subsequent accesses succeed again. The positional state
// is cleared — the arm position after a power cycle is unknown, so the first
// access pays a random positioning cost.
func (d *Drive) Repair() {
	d.failed = false
	d.haveLast = false
}

// Stats returns a copy of the drive's counters.
func (d *Drive) Stats() Stats { return d.stats }

// Resource exposes the underlying FIFO resource (for utilization reports).
func (d *Drive) Resource() *sim.Resource { return d.res }

// serviceTime computes the cost of accessing (file, page) and updates the
// positional state and counters.
func (d *Drive) serviceTime(file, page, bytes int, write bool) sim.Dur {
	if d.failed {
		panic(FailedError{Drive: d.name})
	}
	sequential := d.haveLast && file == d.lastFile && page == d.lastPage+1
	d.haveLast, d.lastFile, d.lastPage = true, file, page

	pos := d.cfg.RandPos
	if sequential {
		pos = d.cfg.SeqPos
	}
	if write {
		if sequential {
			d.stats.SeqWrites++
		} else {
			d.stats.RandWrites++
		}
		d.stats.BytesWritten += int64(bytes)
	} else {
		if sequential {
			d.stats.SeqReads++
		} else {
			d.stats.RandReads++
		}
		d.stats.BytesRead += int64(bytes)
	}
	if d.sim.Tracing() {
		class := "rand-"
		if sequential {
			class = "seq-"
		}
		if write {
			class += "write"
		} else {
			class += "read"
		}
		d.sim.Emit(trace.Event{
			At: int64(d.sim.Now()), Kind: trace.KindDiskOp, Res: d.name,
			Class: class, Bytes: bytes, File: file, Page: page,
		})
	}
	return pos + d.cfg.TransferTime(bytes)
}

// Read blocks p for one page read of the given size.
func (d *Drive) Read(p *sim.Proc, file, page, bytes int) {
	d.res.Use(p, d.serviceTime(file, page, bytes, false))
}

// ReadAsync queues a page read without blocking the caller and returns its
// completion time (used for scan read-ahead).
func (d *Drive) ReadAsync(file, page, bytes int) sim.Time {
	return d.res.UseAsync(d.serviceTime(file, page, bytes, false))
}

// ReserveRead queues a page read and returns its completion time without
// blocking anyone or drawing an ord: the stage form of Read, for an itinerary
// (sim.Proc.Steps).
func (d *Drive) ReserveRead(file, page, bytes int) sim.Time {
	return d.res.Reserve(d.serviceTime(file, page, bytes, false))
}

// Write blocks p for one page write of the given size.
func (d *Drive) Write(p *sim.Proc, file, page, bytes int) {
	d.res.Use(p, d.serviceTime(file, page, bytes, true))
}

// WriteAsync queues a page write without blocking the caller (write-behind)
// and returns its completion time.
func (d *Drive) WriteAsync(file, page, bytes int) sim.Time {
	return d.res.UseAsync(d.serviceTime(file, page, bytes, true))
}

// ReserveWrite is the stage form of Write (see ReserveRead).
func (d *Drive) ReserveWrite(file, page, bytes int) sim.Time {
	return d.res.Reserve(d.serviceTime(file, page, bytes, true))
}

// BusyUntil returns when all queued requests will have completed.
func (d *Drive) BusyUntil() sim.Time { return d.res.BusyUntil() }
