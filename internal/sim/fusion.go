package sim

import "fmt"

// Adaptive shard fusion.
//
// The EOT window scheduler (runWindows) pays a fixed coordination cost per
// barrier round: outbox delivery, bound computation, worker dispatch, trace
// flush. That cost is won back only when the windows it buys are thick —
// the synthetic kernelscale ring fires ~768 events per round, but the real
// query experiments run at 0.28–0.37 occupancy with ~15 events per round,
// and there the coordination dominates and the partitioned kernel loses to
// the serial oracle (EXPERIMENTS.md, "The partitioned kernel", PR 9).
//
// Fusion closes that gap by making the execution grain adaptive. Shards are
// organized into contiguous groups of 2^level members; the window scheduler
// computes bounds per *group* (the same vMin / (min, second-min) / exact
// channel-term math, with the group's earliest output time and minimum
// outgoing floor standing in for the shard's), and a multi-member group
// executes its members' heaps in merged (at, ord) order on one worker —
// intra-group sends are delivered straight into the destination heap and may
// fire inside the same window, exactly like the serial merged loop. At
// level 0 every group is a singleton and the scheduler is byte-for-byte the
// unfused one; at fusion=all the whole simulation is one group and a window
// is a bounded slice (Quantum events) of the serial merged loop with a
// cheap periodic barrier. A feedback loop on the events-per-round counter
// moves the level up when rounds run thin and back down when traffic
// returns, with hysteresis and, from full fusion (where the quantum caps
// the counter and hides returning parallelism), periodic one-level probes.
//
// Byte-identity survives every level because nothing observable depends on
// the grain: ord stamps are per-shard and advance with the shard's own
// deterministic execution; each member still fires its private heap in
// (at, ord) order; an intra-group arrival always lands strictly after the
// group's current merged position (its timestamp is at least the sender's
// clock plus a positive floor), so the merged order a group executes is the
// serial order restricted to its members; and trace sentinels are buffered
// per shard as always, so the barrier merge reconstructs the serial
// emission order unchanged. Group bounds are sound for the same reason
// shard bounds are: a group's first outward send happens no earlier than
// min(eot_g, vMin) plus its minimum outgoing floor — intra-group chains
// can only re-initiate at or after eot_g, never before.

// Fusion configures adaptive shard fusion for the window scheduler. The
// zero value selects the adaptive defaults; Off pins the scheduler at
// level 0 (one shard per group, the pre-fusion behavior). Install with
// Sim.SetFusion before Run.
type Fusion struct {
	// Off disables fusion: the scheduler always runs one shard per group.
	Off bool
	// InitLevel is the starting fusion level (group size 2^level). 0 starts
	// fully split; -1 starts fully fused (one group), the "all" mode.
	InitLevel int
	// FuseBelow: when a policy period averages fewer events per barrier
	// round than this, the level is raised (groups double). Default 64.
	FuseBelow int
	// SplitAbove: when a period averages at least this many events per
	// round and more than one group exists, the level is lowered.
	// Default 512.
	SplitAbove int
	// EvalRounds is the number of barrier rounds per policy period.
	// Default 24.
	EvalRounds int
	// ProbePeriods: from full fusion — where the quantum caps the
	// events-per-round counter and hides returning parallel traffic — the
	// policy probes one level down every this many periods and keeps the
	// split only if the probe period runs thick. Default 4.
	ProbePeriods int
	// Quantum caps the events a multi-member group fires in one window, so
	// a fully fused simulation still reaches a barrier (and the policy)
	// periodically and trace memory stays bounded. Default 2048.
	Quantum int
}

// withDefaults fills unset tuning fields with the adaptive defaults.
func (f Fusion) withDefaults() Fusion {
	if f.FuseBelow == 0 {
		f.FuseBelow = 64
	}
	if f.SplitAbove == 0 {
		f.SplitAbove = 512
	}
	if f.EvalRounds == 0 {
		f.EvalRounds = 24
	}
	if f.ProbePeriods == 0 {
		f.ProbePeriods = 4
	}
	if f.Quantum == 0 {
		f.Quantum = 2048
	}
	return f
}

// SetFusion installs the adaptive fusion policy (see Fusion). Call before
// Run; the default is no fusion, which preserves the one-shard-per-group
// scheduler exactly.
func (s *Sim) SetFusion(f Fusion) {
	s.fusion = f.withDefaults()
	s.fuseOn = !f.Off
}

// FusionLevel returns the window scheduler's current fusion level: groups
// hold 2^level shards (capped at the shard count). 0 until a windowed run
// engages the policy.
func (s *Sim) FusionLevel() int { return s.glevel }

// group is one scheduling unit of the fused window scheduler: a contiguous
// run of shards that the coordinator bounds together and one worker
// executes together. A singleton group behaves exactly like a bare shard.
type group struct {
	members []*Shard

	// Per-round scratch, written by the coordinator at each barrier.
	head     Time // earliest pending event over the members
	eot      Time // earliest outward-send instant over the members
	base     Dur  // minimum outgoing base floor over the members
	chanOver bool // some member declares a channel floor above its base
	bound    Time // exclusive window bound granted this round
	active   int  // members with a pending event below bound this round

	// fired counts the events the group fired in the current window and cur
	// is the member firing now; the worker writes them, the coordinator
	// reads fired after the barrier.
	fired int
	cur   *Shard

	// Merged-execution scratch (multi-member groups only): the lazy
	// member-order heap and the list of members that received intra-group
	// pushes during the current firing.
	tops  topHeap
	dirty []*Shard
}

// refresh recomputes the group's per-round summary from its members.
func (g *group) refresh() {
	g.head, g.eot, g.chanOver = infTime, infTime, false
	g.base = infTime
	for _, sh := range g.members {
		bf := sh.baseFloor()
		if bf < g.base {
			g.base = bf
		}
		if sh.maxChan > bf {
			g.chanOver = true
		}
		if t, ok := sh.events.peek(); ok {
			if t < g.head {
				g.head = t
			}
			if sh.quiet > t {
				t = sh.quiet
			}
			if t < g.eot {
				g.eot = t
			}
		}
	}
}

// minFloorTo returns the smallest effective floor on any send from a member
// of src to a member of dst (the groups are disjoint). Members without a
// raised channel floor contribute their base floor directly; only the rare
// channel-floored members walk dst's membership.
func (src *group) minFloorTo(dst *group) Dur {
	f := Dur(infTime)
	for _, i := range src.members {
		bf := i.baseFloor()
		if i.maxChan <= bf {
			if bf < f {
				f = bf
			}
			continue
		}
		for _, j := range dst.members {
			if c := i.floorTo(j); c < f {
				f = c
			}
		}
	}
	return f
}

// initLevel returns the fusion level a windowed run starts at.
func (s *Sim) initLevel() int {
	if !s.fuseOn {
		return 0
	}
	if s.fusion.InitLevel < 0 {
		l := 0
		for 1<<uint(l) < len(s.shards) {
			l++
		}
		return l
	}
	return s.fusion.InitLevel
}

// rebuildGroups repartitions the shards into contiguous groups of
// 2^glevel members (the tail group may be short) and points each shard at
// its group. Coordinator context only — between windows, no shard is
// executing.
func (s *Sim) rebuildGroups() {
	size := 1
	if s.glevel > 0 {
		size = 1 << uint(s.glevel)
	}
	if size > len(s.shards) {
		size = len(s.shards)
	}
	s.groups = s.groups[:0]
	for i := 0; i < len(s.shards); i += size {
		j := i + size
		if j > len(s.shards) {
			j = len(s.shards)
		}
		g := &group{members: s.shards[i:j]}
		for _, sh := range g.members {
			sh.grp = g
		}
		s.groups = append(s.groups, g)
	}
}

// fusionTick runs the adaptive policy at a barrier: once per EvalRounds
// rounds it compares the period's mean events per round against the
// hysteresis band and moves the fusion level one step. From full fusion the
// events-per-round signal saturates at the quantum whether or not the
// workload would parallelize, so instead of splitting directly the policy
// probes: every ProbePeriods periods it drops one level for a single period
// and keeps the split only if that period actually ran thick.
func (s *Sim) fusionTick() {
	if !s.fuseOn || len(s.shards) < 2 {
		return
	}
	if s.fRounds < uint64(s.fusion.EvalRounds) {
		return
	}
	epr := float64(s.fEvents) / float64(s.fRounds)
	s.fRounds, s.fEvents = 0, 0
	old := s.glevel
	switch {
	case s.fProbing:
		s.fProbing = false
		if epr >= float64(s.fusion.SplitAbove) {
			// Traffic returned while probing: keep the probed (lower) level.
			s.wSplitOps++
		} else {
			s.glevel = s.fBaseLevel
		}
		s.fProbeWait = s.fusion.ProbePeriods
	case epr < float64(s.fusion.FuseBelow) && len(s.groups) > 1:
		s.glevel++
		s.wFuseOps++
		s.fProbeWait = s.fusion.ProbePeriods
	case epr >= float64(s.fusion.SplitAbove) && s.glevel > 0 && len(s.groups) > 1:
		s.glevel--
		s.wSplitOps++
	case s.glevel > 0 && len(s.groups) == 1:
		s.fProbeWait--
		if s.fProbeWait <= 0 {
			s.fProbing = true
			s.fBaseLevel = s.glevel
			s.glevel--
		}
	}
	if s.glevel != old {
		s.rebuildGroups()
	}
}

// runGroup executes one group's window: a singleton group runs the plain
// per-shard loop, a multi-member group the merged loop. Worker context (or
// inline for a lone runnable group). A panic out of an event callback is
// captured as the firing shard's failure, which the coordinator rethrows
// deterministically at the barrier.
func (s *Sim) runGroup(g *group) {
	g.cur = g.members[0]
	defer func() {
		if r := recover(); r != nil {
			g.cur.fail(fmt.Sprintf("shard%d event", g.cur.id), r)
		}
	}()
	if len(g.members) == 1 {
		sh := g.members[0]
		sh.bound = g.bound
		before := sh.wEvents
		s.runShardWindow(sh)
		g.fired = int(sh.wEvents - before)
		return
	}
	s.runGroupMerged(g)
}

// runGroupMerged fires the group's members in merged (at, ord) order,
// strictly below g.bound and at most Quantum events — the serial merged
// loop restricted to the group. Intra-group sends land directly in the
// destination member's heap (schedule routes them here instead of the
// outbox) and may fire inside the same window: an arrival's timestamp is at
// least the sender's clock plus a positive floor, so it always sorts
// strictly after the group's current merged position and the executed order
// remains exactly the serial order restricted to the members. Everything
// touched is group-private.
func (s *Sim) runGroupMerged(g *group) {
	g.tops = g.tops[:0]
	g.dirty = g.dirty[:0]
	for _, sh := range g.members {
		if at, ord, ok := sh.events.head(); ok && at < g.bound {
			g.tops.push(topEntry{at: at, ord: ord, sh: sh})
		}
	}
	fired := 0
	quantum := s.fusion.Quantum
	for fired < quantum {
		// Validated minimum over the members' heads, discarding stale
		// entries (same lazy discipline as the serial merged loop: every
		// member whose head changed has a fresher entry via dirty).
		var sh *Shard
		for len(g.tops) > 0 {
			top := g.tops[0]
			a, o, ok := top.sh.events.head()
			if !ok || a != top.at || o != top.ord {
				g.tops.pop()
				continue
			}
			g.tops.pop()
			sh = top.sh
			break
		}
		if sh == nil {
			break
		}
		// Burst: keep firing sh while nothing landed on other members and
		// its next head is still at or below the heap's conservative
		// minimum (stale entries only understate it, so the comparison may
		// end a burst early but never misorder).
		for {
			g.cur = sh
			fired++
			s.fireWindow(sh, sh.events.pop())
			if sh.failure != nil {
				g.fired = fired
				return
			}
			if len(g.dirty) > 0 {
				for _, d := range g.dirty {
					if d == sh {
						continue
					}
					if a, o, ok := d.events.head(); ok && a < g.bound {
						g.tops.push(topEntry{at: a, ord: o, sh: d})
					}
				}
				g.dirty = g.dirty[:0]
				if a, o, ok := sh.events.head(); ok && a < g.bound {
					g.tops.push(topEntry{at: a, ord: o, sh: sh})
				}
				break
			}
			if fired >= quantum {
				break
			}
			a, o, ok := sh.events.head()
			if !ok || a >= g.bound {
				break
			}
			if len(g.tops) > 0 {
				top := g.tops[0]
				if top.at < a || (top.at == a && top.ord < o) {
					g.tops.push(topEntry{at: a, ord: o, sh: sh})
					break
				}
			}
		}
	}
	g.fired = fired
}
