package teradata

import (
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wiss"
)

// SelectKind is the physical plan of a Teradata selection.
type SelectKind int

const (
	// FileScan reads the entire hash file at every AMP — the only option
	// for range predicates on unindexed attributes (§3).
	FileScan SelectKind = iota
	// IndexScan scans the ENTIRE dense secondary index (its rows are
	// hashed, not sorted, §3) and fetches each qualifying tuple's data
	// block with a random access.
	IndexScan
	// HashAccess is a single-tuple exact-match on the primary key: one
	// disk access at one AMP.
	HashAccess
)

// RunSelect executes a selection and stores its result via INSERT INTO
// (with per-tuple logging) unless toHost is set. A HashAccess predicate must
// be an exact match on the primary key.
func (m *Machine) RunSelect(r *Relation, pred rel.Pred, kind SelectKind, toHost bool) Result {
	tc := m.Prm.Tera
	if kind == HashAccess && (pred.Attr != r.KeyAttr || pred.Lo != pred.Hi) {
		panic("teradata: HashAccess needs an exact match on the primary key " + r.KeyAttr.String())
	}
	var out *Relation
	if !toHost {
		out = m.newResult()
	}
	res := m.run(tc.HostStartup, func(p *sim.Proc) int {
		if kind == HashAccess {
			// One hash access locates the block (§3).
			amp := m.ampFor(pred.Lo)
			return m.step(p, "hash", amp, func() int {
				var found []*rel.Tuple
				if _, t, ok := m.hashLocate(p, amp, r, pred.Lo); ok {
					found = append(found, &t)
				}
				if toHost {
					m.Net.TransferBulk(p, m.AMPs[amp], m.Host, m.Prm.TupleBytes)
				} else {
					m.storeBatch(p, amp, found, out)
				}
				return len(found)
			})
		}
		return m.fanout(p, [...]string{FileScan: "file-scan", IndexScan: "index-scan"}[kind], func(ap *sim.Proc, amp int) int {
			q := &selection{
				qualifying: qualifying{pred: pred},
				m:          m, amp: amp, file: r.Frags[amp].File,
				ins: insertion{m: m, out: out},
			}
			switch kind {
			case FileScan:
				q.file.NewScanner().Run(ap, func(pg *wiss.Page) { q.scan(pg, tc.InstrPerTupleScan) }, q.filePage, nil)
			case IndexScan:
				if !r.Secondary[pred.Attr] {
					panic("teradata: IndexScan without a secondary index on " + pred.Attr.String())
				}
				ap.Steps(q.indexScan)
			}
			return q.n
		})
	})
	if out != nil {
		m.catalogResult(out, res.Tuples)
	}
	return res
}

// selection is one AMP's part of a FileScan or IndexScan selection: the walk
// over its fragment, the count of selected tuples and, unless they go to the
// host, their INSERT INTO. Its two itineraries (sim.Proc.Steps) resume the
// AMP's process once per file scan and once per index scan.
type selection struct {
	qualifying
	m    *Machine
	amp  int
	file *wiss.File
	ins  insertion // out == nil: results go to the host
	n    int       // tuples selected

	// IndexScan.
	stage    int
	idxRead  int        // index pages read so far
	nextPage int        // next page of the file to look for qualifying tuples in
	fetched  *rel.Tuple // the tuple whose data block is being read
}

const (
	idxScan = iota
	idxFetch
)

// emit counts a selected tuple and starts its INSERT INTO, if it has one.
func (q *selection) emit(t *rel.Tuple) {
	q.n++
	if q.ins.out != nil {
		q.ins.start(q.amp, t)
	}
}

// filePage is the itinerary of one page of a file scan: the scan CPU for
// every tuple on it, then an insertion for each that qualifies.
func (q *selection) filePage() (sim.Time, bool) {
	if at, due := q.payScan(q.m.AMPs[q.amp]); due {
		return at, true
	}
	for {
		if at, more := q.ins.step(); more {
			return at, true
		}
		t := q.nextTuple()
		if t == nil {
			return 0, false
		}
		q.emit(t)
	}
}

// indexScan is the itinerary of an AMP's whole index scan.
func (q *selection) indexScan() (sim.Time, bool) {
	m := q.m
	nd := m.AMPs[q.amp]
	switch q.stage {
	case idxScan:
		// The whole index is scanned: same number of comparisons as a
		// file scan, fewer sequential I/Os (§5.1).
		entries := q.file.Len()
		if q.idxRead < entries*m.Prm.IndexEntryBytes/m.ampPrm.PageBytes+1 {
			q.idxRead++
			return nd.Drive.ReserveRead(-200-q.amp, q.idxRead-1, m.ampPrm.PageBytes), true
		}
		q.stage = idxFetch
		if instr := m.Prm.Tera.InstrPerTupleScan * entries; instr > 0 {
			return nd.ReserveCPU(instr), true
		}
		fallthrough
	case idxFetch:
		for {
			if at, more := q.ins.step(); more {
				return at, true
			}
			if t := q.fetched; t != nil {
				q.fetched = nil
				q.emit(t)
				continue
			}
			t := q.nextTuple()
			for t == nil && q.nextPage < q.file.Pages() {
				q.page(q.file.Page(q.nextPage))
				q.nextPage++
				t = q.nextTuple()
			}
			if t == nil {
				break
			}
			// Each qualifying tuple: one random data-block access.
			q.fetched = t
			return nd.Drive.ReserveRead(q.file.ID, m.randPage(), m.ampPrm.PageBytes), true
		}
	}
	return 0, false
}
