package core

import (
	"gamma/internal/rel"
)

// resolveScan fills in an automatic access path using the same heuristics
// the paper attributes to Gamma's optimizer (§5.1):
//
//   - A clustered index on the predicate attribute is always preferred: only
//     the qualifying key range of the (sorted) file is read.
//   - A non-clustered index is used only when the expected number of
//     qualifying tuples costs fewer I/Os than a segment scan — roughly when
//     selectivity < 1/(tuples per page). At 4 KB pages that threshold is
//     ~5.9%, so 1% selections use the index and 10% selections do not
//     ("our optimizer is smart enough to choose a segment scan", §5.2.1).
func (m *Machine) resolveScan(s ScanSpec) ScanSpec {
	if s.Rel == nil {
		panic("core: scan without relation")
	}
	if s.Path != PathAuto {
		return s
	}
	if s.Pred.IsTrue() {
		s.Path = PathHeap
		return s
	}
	s.Path = m.cheapestPath(s.Rel, s.Pred)
	return s
}

// scanSites returns the fragments a selection must visit. Exact-match
// predicates on the partitioning attribute of hashed or range-partitioned
// relations are directed to a single site; range predicates on the
// partitioning attribute of range-partitioned relations visit only the
// overlapping sites. Everything else runs on all sites (§2). degraded
// reports that at least one site resolved to a backup copy; err is
// *ErrUnavailable when some needed fragment has no readable copy (the query
// fails, the machine survives). scanSites consults only directory state and
// costs no simulated time, so callers may invoke it before committing any
// resources to the attempt.
func (m *Machine) scanSites(s ScanSpec) (frags []*Fragment, degraded bool, err error) {
	r := s.Rel
	pr := s.Pred
	one := func(i int) ([]*Fragment, bool, error) {
		fr, bak, err := m.liveFrag(r, i)
		if err != nil {
			return nil, false, err
		}
		return []*Fragment{fr}, bak, nil
	}
	if !pr.IsTrue() && pr.Attr == r.PartAttr {
		switch r.Strategy {
		case Hashed:
			if pr.Lo == pr.Hi {
				j := int(rel.Hash64(pr.Lo, LoadSeed) % uint64(len(r.Frags)))
				return one(j)
			}
		case RangeUser, RangeUniform:
			var out []*Fragment
			prev := int64(-1) << 32 // below any int32
			for i, b := range r.Bounds {
				// Fragment i holds keys in (prev, b].
				fragLo, fragHi := prev+1, int64(b)
				if int64(pr.Hi) >= fragLo && int64(pr.Lo) <= fragHi {
					fr, bak, err := m.liveFrag(r, i)
					if err != nil {
						return nil, false, err
					}
					degraded = degraded || bak
					out = append(out, fr)
				}
				prev = fragHi
			}
			if len(out) > 0 {
				return out, degraded, nil
			}
			return one(0)
		}
	}
	out := make([]*Fragment, len(r.Frags))
	for i := range r.Frags {
		fr, bak, err := m.liveFrag(r, i)
		if err != nil {
			return nil, false, err
		}
		degraded = degraded || bak
		out[i] = fr
	}
	return out, degraded, nil
}

// PropagateSelection applies the optimizer rewrite the paper describes for
// joinAselB (§6.1): when a selection restricts the join attribute of one
// relation, the same range restriction is valid on the other relation, so
// both sides can be reduced before redistribution ("selection propagation by
// the Gamma optimizer reduces joinAselB to joinselAselB").
func PropagateSelection(joinAttrLeft, joinAttrRight rel.Attr, predRight rel.Pred) (rel.Pred, bool) {
	if predRight.IsTrue() || predRight.Attr != joinAttrRight {
		return rel.True(), false
	}
	return rel.Pred{Attr: joinAttrLeft, Lo: predRight.Lo, Hi: predRight.Hi}, true
}
