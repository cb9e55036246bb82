package sim

// The frozen benchmark harness (benchmark/) still compiles against the
// partitioned kernel's API, which is gone: a simulation is one calendar. This
// file keeps exactly what the harness reads, inert, each symbol with the
// harness line that reads it. Delete it when benchmark/ may be edited.

// Partition does nothing (benchmark/probes.go:249).
func (s *Sim) Partition(lookahead Dur) {}

// SetWorkers does nothing (benchmark/probes.go:250).
func (s *Sim) SetWorkers(n int) {}

// Shard is a handle onto the simulation's one calendar
// (benchmark/probes.go:251–279).
type Shard struct{ s *Sim }

// DefaultShard returns a handle onto the calendar (benchmark/probes.go:254).
func (s *Sim) DefaultShard() *Shard { return &Shard{s} }

// AddShard returns a handle onto the calendar (benchmark/probes.go:256).
func (s *Sim) AddShard() *Shard { return &Shard{s} }

// NewResource is Sim.NewResource (benchmark/probes.go:258).
func (sh *Shard) NewResource(name string) *Resource { return sh.s.NewResource(name) }

// After is Sim.After (benchmark/probes.go:269).
func (sh *Shard) After(d Dur, fn func()) { sh.s.After(d, fn) }

// Send is Sim.At: dst names the same calendar (benchmark/probes.go:272).
func (sh *Shard) Send(dst *Shard, t Time, fn func()) { sh.s.At(t, fn) }

// Now is Sim.Now (benchmark/probes.go:272).
func (sh *Shard) Now() Time { return sh.s.now }

// At is Sim.At (benchmark/probes.go:279).
func (sh *Shard) At(t Time, fn func()) { sh.s.At(t, fn) }

// WindowStats is always zero: no simulation runs windows
// (benchmark/child.go:62, 245, 254; benchmark/run.go:236–240).
type WindowStats struct {
	Windows, WindowEvents, FuseOps, SplitOps int64
}

// Occupancy is zero (benchmark/run.go:237).
func (WindowStats) Occupancy() float64 { return 0 }

// WindowCounters accumulates nothing (benchmark/child.go:227, 245, 254).
type WindowCounters struct{}

// Add does nothing (benchmark/child.go:245).
func (*WindowCounters) Add(WindowStats) {}

// Stats returns zero (benchmark/child.go:254).
func (*WindowCounters) Stats() WindowStats { return WindowStats{} }
