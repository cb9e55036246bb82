package teradata

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gamma/internal/config"
	"gamma/internal/disk"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wisconsin"
)

// tracedQuery is one query of tracedWorkload: its result, the events its run
// emitted, and how many AMP steps of each class (op-start's Class) it ran.
type tracedQuery struct {
	name  string
	res   Result
	col   *trace.Collector
	steps map[string]int
}

// tracedWorkload runs, on the default 20-AMP machine, a stored FileScan, an
// IndexScan to the host, a HashAccess, joinABprime on the key and on a
// non-key attribute, joinCselAselB and each of the five update kinds, every
// query into a collector of its own.
func tracedWorkload(t *testing.T) []tracedQuery {
	t.Helper()
	prm := config.Default()
	m := NewMachine(sim.New(), &prm)
	a := m.Load("A", rel.Unique1, []rel.Attr{rel.Unique2}, wisconsin.Generate(4000, 1))
	b := m.Load("Bprime", rel.Unique1, nil, wisconsin.Generate(400, 7))
	c := m.Load("C", rel.Unique1, nil, wisconsin.Generate(400, 22))
	amps := len(m.AMPs)
	var qs []tracedQuery
	run := func(name string, steps map[string]int, query func() Result) {
		col := trace.NewCollector()
		m.Sim.SetSink(col)
		qs = append(qs, tracedQuery{name, query(), col, steps})
	}
	sel := rel.Between(rel.Unique2, 0, 399)
	run("file-scan-into", map[string]int{"file-scan": amps}, func() Result { return m.RunSelect(a, sel, FileScan, false) })
	run("index-scan-to-host", map[string]int{"index-scan": amps}, func() Result { return m.RunSelect(a, sel, IndexScan, true) })
	run("hash-access", map[string]int{"hash": 1}, func() Result { return m.RunSelect(a, rel.Eq(rel.Unique1, 77), HashAccess, true) })
	join := map[string]int{"route": amps, "merge": amps, "store": amps}
	for _, attr := range []rel.Attr{rel.Unique1, rel.Unique2} {
		run("joinABprime-"+attr.String(), join, func() Result {
			return m.RunJoin(JoinQuery{R1: a, Pred1: rel.True(), Attr1: attr, R2: b, Pred2: rel.True(), Attr2: attr})
		})
	}
	run("joinCselAselB", map[string]int{"route": amps, "merge": amps, "route2": amps, "merge2": amps, "store": amps}, func() Result {
		return m.RunJoin(JoinQuery{
			R1: a, Pred1: sel, Attr1: rel.Unique2, R2: b, Pred2: rel.True(), Attr2: rel.Unique2,
			R3: c, Pred3: rel.True(), Attr3: rel.Unique2, AttrI: rel.Unique2,
		})
	})
	var tup rel.Tuple
	tup.Set(rel.Unique1, 100003)
	tup.Set(rel.Unique2, 100003)
	// ModifyIndexed probes the AMPs in order until one holds the row.
	probed := 0
	for amp, fr := range a.Frags {
		for _, t := range fileTuplesFree(fr) {
			if t.Get(rel.Unique2) == 58 {
				probed = amp + 1
			}
		}
	}
	for _, u := range []struct {
		name  string
		steps map[string]int
		q     UpdateQuery
	}{
		{"append", map[string]int{"append": 1}, UpdateQuery{Kind: AppendTuple, Tuple: tup}},
		{"delete", map[string]int{"delete": 1}, UpdateQuery{Kind: DeleteByKey, Key: 55}},
		{"modify-key", map[string]int{"modkey-out": 1, "modkey-in": 1}, UpdateQuery{Kind: ModifyKeyAttr, Key: 56, Attr: rel.Unique1, NewValue: 100777}},
		{"modify", map[string]int{"modify": 1}, UpdateQuery{Kind: ModifyNonIndexed, Key: 57, Attr: rel.Ten, NewValue: 3}},
		{"modify-indexed", map[string]int{"modidx": probed}, UpdateQuery{Kind: ModifyIndexed, Key: 58, Attr: rel.Unique2, NewValue: 100999}},
	} {
		u.q.Rel = a
		run(u.name, u.steps, func() Result { return m.RunUpdate(u.q) })
	}
	return qs
}

// TestResultsCarryCounters: every Teradata result carries the machine's
// counters over the query, whose window is the query's elapsed time, with the
// host and the AMPs named, so each has a verdict.
func TestResultsCarryCounters(t *testing.T) {
	for _, q := range tracedWorkload(t) {
		c := q.res.Counters
		if c.Clock != q.res.Elapsed || q.res.Elapsed <= 0 {
			t.Errorf("%s: counters over %v, elapsed %v", q.name, c.Clock, q.res.Elapsed)
		}
		if v := c.Verdict(); v.Binding == "" {
			t.Errorf("%s: verdict %s", q.name, v)
		}
		roles := map[string]int{}
		for _, n := range c.Nodes {
			roles[n.Role]++
		}
		if want := map[string]int{"host": 1, "amp": 20}; !reflect.DeepEqual(roles, want) {
			t.Errorf("%s: roles %v, want %v", q.name, roles, want)
		}
	}
}

// TestTraceAgreesWithCounters is core's twin for the Teradata machine: for
// each query of tracedWorkload, every resource's service records sum to the
// busy time its node's counters hold; every record is served no earlier than
// requested, and one resource's records never overlap; and each drive's
// disk-op classes and bytes are its access mix.
func TestTraceAgreesWithCounters(t *testing.T) {
	for _, q := range tracedWorkload(t) {
		busy := map[string]sim.Dur{}
		end := map[string]int64{}
		for _, e := range q.col.Of(trace.KindService) {
			if e.At > e.Start || e.Start > e.End {
				t.Errorf("%s: %s served [%d,%d] on a request at %d", q.name, e.Res, e.Start, e.End, e.At)
			}
			if e.Start < end[e.Res] {
				t.Errorf("%s: %s serves [%d,%d] before its previous service ends at %d", q.name, e.Res, e.Start, e.End, end[e.Res])
			}
			end[e.Res] = e.End
			busy[e.Res] += sim.Dur(e.End - e.Start)
		}
		access := map[string]*disk.Stats{}
		for _, e := range q.col.Of(trace.KindDiskOp) {
			st := access[e.Res]
			if st == nil {
				st = &disk.Stats{}
				access[e.Res] = st
			}
			switch e.Class {
			case "seq-read":
				st.SeqReads++
			case "rand-read":
				st.RandReads++
			case "seq-write":
				st.SeqWrites++
			case "rand-write":
				st.RandWrites++
			default:
				t.Fatalf("%s: disk-op class %q", q.name, e.Class)
			}
			if strings.HasSuffix(e.Class, "read") {
				st.BytesRead += int64(e.Bytes)
			} else {
				st.BytesWritten += int64(e.Bytes)
			}
		}
		for id, n := range q.res.Counters.Nodes {
			for res, want := range map[string]sim.Dur{
				fmt.Sprintf("cpu%d", id): n.CPU, fmt.Sprintf("nic%d", id): n.NIC, fmt.Sprintf("disk%d", id): n.Drive,
			} {
				if busy[res] != want {
					t.Errorf("%s: %s's service records sum to %v, its counters hold %v", q.name, res, busy[res], want)
				}
				delete(busy, res)
			}
			drive := fmt.Sprintf("disk%d", id)
			if got := access[drive]; got != nil && *got != n.Access || got == nil && n.Access != (disk.Stats{}) {
				t.Errorf("%s: %s's disk-op records %+v, its access mix %+v", q.name, drive, got, n.Access)
			}
		}
		for res := range busy {
			t.Errorf("%s: service records of %s, a resource no node counts", q.name, res)
		}
	}
}

// TestTraceSpansWellFormed sanity-checks the spans of each query of
// tracedWorkload: the query span is closed and lasts the query's elapsed
// time, and every AMP step that ran is exactly one closed op span inside it,
// as many of each class as the query has steps.
func TestTraceSpansWellFormed(t *testing.T) {
	for _, tq := range tracedWorkload(t) {
		name, res, col := tq.name, tq.res, tq.col
		q := col.Of(trace.KindQueryStart, trace.KindQueryDone)
		if len(q) != 2 || q[0].Kind != trace.KindQueryStart || q[1].Query != q[0].Query {
			t.Fatalf("%s: query events %+v, want one start and one done", name, q)
		}
		from, to := q[0].At, q[1].At
		if to-from != int64(res.Elapsed) {
			t.Errorf("%s: query span [%d,%d]; want duration %d", name, from, to, int64(res.Elapsed))
		}
		opened, open := map[string]int{}, map[string]int{}
		ran := map[string]int{}
		for _, e := range col.Of(trace.KindOpStart, trace.KindOpDone) {
			if e.At < from || e.At > to {
				t.Errorf("%s: %s of %s@%d at %d outside query span [%d,%d]", name, e.Kind, e.Op, e.Site, e.At, from, to)
			}
			k := fmt.Sprintf("%s@%d/%d", e.Op, e.Node, e.Site)
			if e.Kind == trace.KindOpStart {
				ran[e.Class]++
				opened[k]++
				open[k]++
			} else if open[k]--; open[k] < 0 {
				t.Errorf("%s: %s of %s with no open span", name, e.Kind, k)
			}
		}
		for k, n := range open {
			if n != 0 || opened[k] != 1 {
				t.Errorf("%s: step %s opened %d times, %d left open", name, k, opened[k], n)
			}
		}
		if !reflect.DeepEqual(ran, tq.steps) {
			t.Errorf("%s: step spans by class %v, want %v", name, ran, tq.steps)
		}
	}
}

// writes totals the drive writes of a query's counters.
func writes(res Result) (n int64) {
	for _, nd := range res.Counters.Nodes {
		n += nd.Access.SeqWrites + nd.Access.RandWrites
	}
	return n
}

// TestStoredResultCostsInsertIOsPerTuple is §4's explanation of Table 1's
// Teradata column: INSERT INTO logs every stored tuple, so a stored result
// costs InsertIOs drive writes per tuple and a result sent to the host none.
func TestStoredResultCostsInsertIOsPerTuple(t *testing.T) {
	m, r := newTera(t, 10000)
	ios := int64(m.Prm.Tera.InsertIOs)
	for _, n := range []int32{100, 1000} {
		stored := m.RunSelect(r, rel.Between(rel.Unique2, 0, n-1), FileScan, false)
		if got, want := writes(stored), ios*int64(n); stored.Tuples != int(n) || got != want {
			t.Errorf("%d tuples stored: %d drive writes, want %d (%d per tuple)", stored.Tuples, got, want, ios)
		}
		if toHost := m.RunSelect(r, rel.Between(rel.Unique2, 0, n-1), FileScan, true); writes(toHost) != 0 {
			t.Errorf("%d tuples to the host: %d drive writes, want none", toHost.Tuples, writes(toHost))
		}
	}
}

// TestIndexScanReadsTheWholeIndex is §5.1's explanation of the "puzzling"
// Table 1 rows: a dense secondary index is hashed, so a range query reads
// each AMP's whole index whatever the range, and one random data-block read
// per qualifying tuple comes on top.
func TestIndexScanReadsTheWholeIndex(t *testing.T) {
	m, r := newTera(t, 20000)
	for _, n := range []int32{20, 200, 2000} {
		pred := rel.Between(rel.Unique2, 0, n-1)
		res := m.RunSelect(r, pred, IndexScan, true)
		for amp, fr := range r.Frags {
			qual := int64(0)
			for _, t := range fileTuplesFree(fr) {
				if pred.Match(t) {
					qual++
				}
			}
			index := int64(fr.File.Len()*m.Prm.IndexEntryBytes/m.ampPrm.PageBytes + 1)
			got := res.Counters.Nodes[fr.Node.ID].Access
			if got.Reads() != index+qual || got.RandReads != 1+qual {
				t.Errorf("range of %d, AMP %d: %d reads (%d random), want the %d-page index (first read random) and %d random data reads",
					n, amp, got.Reads(), got.RandReads, index, qual)
			}
		}
	}
}

// TestKeyJoinRedistributesNothing is §6.1's explanation of the key join's
// 25-50 % advantage: joining on the primary key moves no tuple over the
// Y-net and writes no temporary-file insert, while a non-key join sends
// every tuple that hashes to another AMP and writes TempInsertIOs per tuple
// it redistributes.
func TestKeyJoinRedistributesNothing(t *testing.T) {
	m, a := newTera(t, 4000)
	b := m.Load("Bprime", rel.Unique1, nil, wisconsin.Generate(400, 7))
	join := func(attr rel.Attr) Result {
		return m.RunJoin(JoinQuery{R1: a, Pred1: rel.True(), Attr1: attr, R2: b, Pred2: rel.True(), Attr2: attr})
	}
	key, nonkey := join(rel.Unique1), join(rel.Unique2)
	if key.Tuples != 400 || nonkey.Tuples != 400 {
		t.Fatalf("joins returned %d and %d tuples, want 400", key.Tuples, nonkey.Tuples)
	}
	if key.Counters.Net.RingBytes != 0 {
		t.Errorf("key join moved %d Y-net bytes, want none", key.Counters.Net.RingBytes)
	}
	// Non-key: each tuple moves from the AMP its key hashes to, to the one
	// its unique2 hashes to; each result tuple moves back to its key's AMP.
	amp := func(v int32) uint64 { return rel.Hash64(v, hashSeed) % uint64(len(m.AMPs)) }
	inB := map[int32]bool{}
	moved := 0
	for _, r := range []*Relation{a, b} {
		for _, fr := range r.Frags {
			for _, t := range fileTuplesFree(fr) {
				if r == b {
					inB[t.Get(rel.Unique2)] = true
				}
				if amp(t.Get(rel.Unique1)) != amp(t.Get(rel.Unique2)) {
					moved++
				}
			}
		}
	}
	for _, fr := range a.Frags {
		for _, t := range fileTuplesFree(fr) {
			if inB[t.Get(rel.Unique2)] && amp(t.Get(rel.Unique1)) != amp(t.Get(rel.Unique2)) {
				moved++
			}
		}
	}
	if got, want := nonkey.Counters.Net.RingBytes, int64(moved*m.Prm.TupleBytes); got != want {
		t.Errorf("non-key join moved %d Y-net bytes, want %d (%d tuples)", got, want, moved)
	}
	temp := int64(m.Prm.Tera.TempInsertIOs * (a.N + b.N))
	if got := writes(nonkey) - writes(key); got != temp {
		t.Errorf("non-key join wrote %d more pages than the key join, want %d temporary-file inserts", got, temp)
	}
}

// TestHashAccessStoresItsResult: a HashAccess whose result is not sent to the
// host stores it through INSERT INTO, as the scans' results are.
func TestHashAccessStoresItsResult(t *testing.T) {
	m, r := newTera(t, 2000)
	res := m.RunSelect(r, rel.Eq(rel.Unique1, 77), HashAccess, false)
	out, _ := m.Relation("result")
	held := 0
	for _, fr := range out.Frags {
		held += fr.File.Len()
	}
	if res.Tuples != 1 || out.N != 1 || held != 1 {
		t.Errorf("hash access: %d tuples, result catalogued with %d, its files hold %d; want 1 each", res.Tuples, out.N, held)
	}
	if got, want := writes(res), int64(m.Prm.Tera.InsertIOs); got != want {
		t.Errorf("hash access into a result: %d drive writes, want the %d of one INSERT INTO", got, want)
	}
}

// TestHashAccessNeedsExactKey: a hash access hashes the predicate's value to
// one AMP, so anything but an exact match on the primary key is refused
// rather than answered from one AMP.
func TestHashAccessNeedsExactKey(t *testing.T) {
	m, r := newTera(t, 2000)
	for _, pred := range []rel.Pred{rel.Between(rel.Unique2, 0, 99), rel.Eq(rel.Unique2, 5), rel.Between(rel.Unique1, 0, 99)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HashAccess on %s in [%d,%d] did not panic", pred.Attr, pred.Lo, pred.Hi)
				}
			}()
			m.RunSelect(r, pred, HashAccess, true)
		}()
	}
}
