package core

// The healing manager: sim-driven failure detection that is independent of
// any in-flight query, atomic promotion of chained-declustered backups to
// primaries in the fragment directory, and background re-replication that
// streams a surviving copy's pages to a live node — paced, so the rebuild
// competes with foreground queries through the normal disk, CPU, and network
// resources rather than finishing for free.
//
// Detection is push-based: every disk node runs a heartbeat process that
// reports its drive status to the healer each interval. A central prober
// pulling status would serialize one CtlMsg of scheduler CPU per node per
// round (7 ms each, §6.2.3) — a wall at 64 nodes — whereas push heartbeats
// cost each node its own 7 ms in parallel. The healer declares a site down
// when its heartbeats go silent past the timeout (confirmed against node
// state, so a beat delayed by CPU contention is never a false positive) or
// when a beat explicitly reports a failed drive.
//
// Every process the layer starts exits at a configured horizon; otherwise
// the perpetual heartbeat wake-ups would keep Sim.Run from ever returning.

import (
	"fmt"
	"slices"
	"sort"

	"gamma/internal/disk"
	"gamma/internal/nose"
	"gamma/internal/sim"
	"gamma/internal/trace"
)

// Healing parameters: detection within ~1 s of a crash at ~3% added CPU per
// node (one 7 ms control message per 250 ms), and rebuild pacing that copies
// 8 pages per burst with a 20 ms think time between bursts, which caps the
// bandwidth a rebuild steals from foreground queries.
const (
	// healInterval is the heartbeat period (and the healer's sweep period).
	healInterval = 250 * sim.Millisecond
	// healTimeout is how long a site's heartbeats must be silent before the
	// healer declares it down: a few intervals.
	healTimeout = sim.Second
	// healPageBatch is the number of pages a rebuild copies per burst.
	healPageBatch = 8
	// healPause is the rebuild's sleep between bursts.
	healPause = 20 * sim.Millisecond
)

// HealConfig parameterizes the healing manager.
type HealConfig struct {
	// Horizon is the absolute simulated time at which the heartbeat and
	// healer processes exit. Required: without it the healing layer would
	// keep the event loop alive forever.
	Horizon sim.Time
}

// HealEpisode is the availability record of one fault: when it was injected,
// when the healer detected it, and when the cluster regained full redundancy
// (-1 while pending). RestoredAt - FaultAt is the episode's MTTR.
type HealEpisode struct {
	Site       int
	FaultAt    sim.Time
	DetectedAt sim.Time
	RestoredAt sim.Time
}

// heartbeat is one disk node's periodic status report to the healer.
type heartbeat struct {
	site    int
	driveOK bool
}

// Healer is the machine's healing manager; see the package comment above.
type Healer struct {
	m    *Machine
	cfg  HealConfig
	port *nose.Port

	lastSeen   []sim.Time
	down       []bool          // the healer's view of each site
	rebuilding map[string]bool // "rel/frag" keys with a copy in flight

	// Cumulative counts, read through Machine.Counters.
	detections, promotions, rebuilds int

	episodes []HealEpisode
}

// EnableHealing starts the healing manager: one heartbeat process per disk
// node and the healer process on the host. Call after loading (and after
// EnableMirroring — without backups the healer can detect but not heal).
func (m *Machine) EnableHealing(cfg HealConfig) *Healer {
	if m.healer != nil {
		return m.healer
	}
	if cfg.Horizon <= m.Sim.Now() {
		panic("core: EnableHealing needs a horizon beyond the current time")
	}
	h := &Healer{
		m:          m,
		cfg:        cfg,
		port:       m.Host.NewPort("healer"),
		lastSeen:   make([]sim.Time, len(m.Disk)),
		down:       make([]bool, len(m.Disk)),
		rebuilding: map[string]bool{},
	}
	for i := range h.lastSeen {
		h.lastSeen[i] = m.Sim.Now()
	}
	m.healer = h
	for site := range m.Disk {
		h.spawnHeartbeat(site)
	}
	m.Sim.SpawnOn(m.Host.Part, "healer", h.run)
	return h
}

// Healer returns the machine's healing manager, nil before EnableHealing.
func (m *Machine) Healer() *Healer { return m.healer }

// spawnHeartbeat starts site's status reporter, the node's own process (no
// scheduler pays for it). Registered through Machine.start, so a crash of the
// node kills it — which is exactly what makes the site go silent at the healer.
func (h *Healer) spawnHeartbeat(site int) {
	m := h.m
	nd := m.Disk[site]
	m.start(nil, nd, fmt.Sprintf("heartbeat@%d", nd.ID), func(p *sim.Proc) {
		for p.Now() < h.cfg.Horizon {
			nose.SendCtl(p, nd, h.port, heartbeat{site: site, driveOK: !nd.Drive.Failed()})
			p.Sleep(healInterval)
		}
	})
}

// noteFault records a fault injection against site for MTTR accounting.
// Called by CrashDisk/FailDrive in kernel context.
func (h *Healer) noteFault(site int) {
	h.episodes = append(h.episodes, HealEpisode{
		Site: site, FaultAt: h.m.Sim.Now(), DetectedAt: -1, RestoredAt: -1,
	})
}

// noteRejoin resets the healer's view of a site returning from an outage and
// restarts its heartbeat. Called by RejoinDisk in kernel context. A short
// outage the healer never condemned may restore redundancy by itself.
func (h *Healer) noteRejoin(site int) {
	h.down[site] = false
	h.lastSeen[site] = h.m.Sim.Now()
	if h.m.Sim.Now() < h.cfg.Horizon {
		h.spawnHeartbeat(site)
	}
	h.checkRestored()
}

// run is the healer process: drain heartbeats, sweep for silence, and drive
// a healing round whenever the view changed. Level-triggered — each round
// recomputes what promotion or rebuild the directory needs from scratch —
// so a fault arriving mid-heal is simply picked up by the next round.
func (h *Healer) run(p *sim.Proc) {
	m := h.m
	for {
		now := p.Now()
		if now >= h.cfg.Horizon {
			h.port.Close()
			return
		}
		if msg, ok := h.port.RecvTimeout(p, healInterval); ok {
			hb := msg.Payload.(heartbeat)
			h.lastSeen[hb.site] = p.Now()
			if !hb.driveOK && !h.down[hb.site] {
				h.detect(p, hb.site)
			}
		}
		// Silence sweep: a site is declared down only when its beats are
		// overdue AND the node truly cannot serve (no false positives from
		// a contended CPU delaying a beat).
		for site, nd := range m.Disk {
			if !h.down[site] && p.Now()-h.lastSeen[site] > healTimeout && !m.driveUp(nd) {
				h.detect(p, site)
			}
		}
		h.healRound(p)
	}
}

// detect marks a site down and stamps its open episodes.
func (h *Healer) detect(p *sim.Proc, site int) {
	h.down[site] = true
	h.detections++
	p.Emit(trace.Event{
		At: int64(p.Now()), Kind: trace.KindHeal, Class: "detect",
		Node: h.m.Disk[site].ID, Site: site,
	})
	for i := range h.episodes {
		if h.episodes[i].Site == site && h.episodes[i].DetectedAt < 0 {
			h.episodes[i].DetectedAt = p.Now()
		}
	}
}

// healRound walks the catalog (sorted, for determinism) and repairs what it
// can: dead primaries with live backups are promoted, then fragments missing
// a live backup get a background rebuild if a target is available.
func (h *Healer) healRound(p *sim.Proc) {
	m := h.m
	for _, name := range m.Relations() {
		r := m.catalog[name]
		if len(r.Backups) == 0 {
			continue // unmirrored (or result) relation: nothing to heal with
		}
		for i := range r.Frags {
			h.healFrag(p, r, i)
		}
	}
}

// healFrag repairs one fragment slot.
func (h *Healer) healFrag(p *sim.Proc, r *Relation, i int) {
	m := h.m
	fr := r.Frags[i]
	if !m.driveUp(fr.Node) {
		b := r.Backups[i]
		if b == nil || !m.driveUp(b.Node) {
			return // both copies lost; only a rejoin can bring data back
		}
		// Promote: swap the directory atomically (no simulated time passes
		// inside an event), then condemn the dead primary's copy — once the
		// directory stops referencing it, a rejoining node must not serve
		// it again.
		p.Emit(trace.Event{
			At: int64(p.Now()), Kind: trace.KindPromote, Res: r.Name, Site: i,
			From: fr.Node.ID, To: b.Node.ID,
		})
		r.Frags[i], r.Backups[i] = b, nil
		m.stores[fr.Node.ID].DropFile(fr.File)
		h.promotions++
		fr = b
	}
	if b := r.Backups[i]; b != nil && !m.driveUp(b.Node) {
		// Live primary, dead backup: condemn the lost copy so the slot
		// becomes rebuildable.
		m.stores[b.Node.ID].DropFile(b.File)
		r.Backups[i] = nil
	}
	if r.Backups[i] == nil {
		h.startRebuild(p, r, i)
	}
}

// rebuildTarget picks the node to host a new backup of a fragment whose
// surviving copy lives on src: the first live disk node after src in ring
// order, re-linking the chained-declustering ring around the hole. Nil when
// src is the only live disk node.
func (h *Healer) rebuildTarget(src *nose.Node) *nose.Node {
	m := h.m
	si := slices.Index(m.Disk, src)
	for off := 1; off < len(m.Disk); off++ {
		nd := m.Disk[(si+off)%len(m.Disk)]
		if m.driveUp(nd) {
			return nd
		}
	}
	return nil
}

// startRebuild begins re-replicating fragment i of r from its live primary,
// unless one is already in flight for the slot or no target exists. The
// copy streams a point-in-time image of the surviving copy (base relations
// are immutable, so the image equals the live data) page by page through
// the source drive, the ring, and the target drive, sleeping between
// bursts, so foreground queries see the rebuild as ordinary contention.
func (h *Healer) startRebuild(p *sim.Proc, r *Relation, i int) {
	m := h.m
	key := fmt.Sprintf("%s/%d", r.Name, i)
	if h.rebuilding[key] {
		return
	}
	src := r.Frags[i]
	tgt := h.rebuildTarget(src.Node)
	if tgt == nil {
		return // no live target; a later round retries after a rejoin
	}
	h.rebuilding[key] = true
	img := m.imageFragment(src)
	st := m.stores[tgt.ID]
	newFile := st.AdoptFile(img.file)
	pages := img.file.Pages()
	pageBytes := m.Prm.PageBytes
	m.start(p, src.Node, fmt.Sprintf("rebuild:%s", key), func(cp *sim.Proc) {
		done := false
		defer func() {
			// Any exit before completion — source crash (kill), source or
			// target drive failure (disk.FailedError), target crash —
			// abandons the copy: the partial file is dropped and the slot
			// becomes rebuildable again in a later round.
			rec := recover()
			if done && rec == nil {
				return
			}
			delete(h.rebuilding, key)
			st.DropFile(newFile)
			cp.Emit(trace.Event{
				At: int64(cp.Now()), Kind: trace.KindRebuild, Class: "abort",
				Res: r.Name, Site: i, From: src.Node.ID, To: tgt.ID,
			})
			if rec != nil {
				if _, ok := rec.(disk.FailedError); ok {
					return
				}
				panic(rec)
			}
		}()
		cp.Emit(trace.Event{
			At: int64(cp.Now()), Kind: trace.KindRebuild, Class: "start",
			Res: r.Name, Site: i, From: src.Node.ID, To: tgt.ID, N: pages,
		})
		for copied := 0; copied < pages; {
			batch := healPageBatch
			if rem := pages - copied; batch > rem {
				batch = rem
			}
			for j := 0; j < batch; j++ {
				if !m.driveUp(src.Node) || !m.driveUp(tgt) {
					return // defer emits the abort
				}
				src.Node.Drive.Read(cp, src.File.ID, copied+j, pageBytes)
				m.Net.TransferBulk(cp, src.Node, tgt, pageBytes)
				tgt.Drive.Write(cp, newFile.ID, copied+j, pageBytes)
			}
			copied += batch
			cp.Sleep(healPause)
		}
		// Install: adopt the index images over the copied file and link the
		// finished replica into the directory. The slot may have been
		// re-promoted meanwhile; install only if it is still empty and the
		// fragment we copied is still the one the directory serves.
		if r.Backups[i] != nil || r.Frags[i] != src || !m.driveUp(tgt) {
			return
		}
		r.Backups[i] = m.adoptIndexes(tgt, newFile, img)
		done = true
		delete(h.rebuilding, key)
		h.rebuilds++
		cp.Emit(trace.Event{
			At: int64(cp.Now()), Kind: trace.KindRebuild, Class: "done",
			Res: r.Name, Site: i, From: src.Node.ID, To: tgt.ID,
			N: pages, Bytes: pages * pageBytes,
		})
		h.checkRestored()
	})
}

// checkRestored closes every open episode when the cluster is back at full
// redundancy: every mirrored fragment has a live primary and a live backup.
func (h *Healer) checkRestored() {
	m := h.m
	for _, name := range m.Relations() {
		r := m.catalog[name]
		if len(r.Backups) == 0 {
			continue
		}
		for i, fr := range r.Frags {
			if !m.driveUp(fr.Node) {
				return
			}
			b := r.Backups[i]
			if b == nil || !m.driveUp(b.Node) {
				return
			}
		}
	}
	oldest := sim.Time(-1)
	restored := false
	for i := range h.episodes {
		if h.episodes[i].RestoredAt < 0 {
			if oldest < 0 || h.episodes[i].FaultAt < oldest {
				oldest = h.episodes[i].FaultAt
			}
			h.episodes[i].RestoredAt = m.Sim.Now()
			restored = true
		}
	}
	if !restored {
		return
	}
	m.Sim.Emit(trace.Event{
		At: int64(m.Sim.Now()), Kind: trace.KindHeal, Class: "restored",
		N: int(m.Sim.Now() - oldest),
	})
}

// Episodes returns the healer's fault episodes ordered by fault time.
func (h *Healer) Episodes() []HealEpisode {
	out := append([]HealEpisode(nil), h.episodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].FaultAt < out[j].FaultAt })
	return out
}
