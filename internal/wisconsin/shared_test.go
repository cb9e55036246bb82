package wisconsin_test

import (
	"hash/fnv"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/teradata"
	"gamma/internal/wisconsin"
)

// checksum hashes every attribute of every tuple in order.
func checksum(ts []rel.Tuple) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for i := range ts {
		for _, v := range ts[i].A {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestLoadersLeaveSharedMasterAlone pins the contract the bench suite's
// generated-relation caches rest on, which hand one slice to every load of a
// relation: the machine loaders copy their input into fragment files and
// never write it — not when a clustered index sorts each fragment, not when
// mirroring builds backups, not on the Teradata model, and not when a later
// update rewrites pages of the loaded relation.
func TestLoadersLeaveSharedMasterAlone(t *testing.T) {
	const n, seed = 3000, 77
	master := wisconsin.Generate(n, seed)
	want := checksum(master)
	check := func(after string) {
		t.Helper()
		if got := checksum(master); got != want {
			t.Fatalf("shared master changed after %s: checksum %x, want %x", after, got, want)
		}
	}
	prm := config.Default()
	u1 := rel.Unique1
	indexed := core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2}}

	m := core.NewMachine(sim.New(), &prm, 3, 3)
	r := m.Load(indexed, master)
	check("core.Machine.Load with a clustered index")
	m.RunUpdate(core.UpdateQuery{Rel: r, Kind: core.ModifyNonIndexed, Key: master[0].Get(rel.Unique1), Attr: rel.Ten, NewValue: 99})
	m.RunUpdate(core.UpdateQuery{Rel: r, Kind: core.DeleteByKey, Key: master[1].Get(rel.Unique1)})
	check("updates on the loaded relation")

	mm := core.NewMachine(sim.New(), &prm, 3, 3)
	mm.EnableMirroring()
	mm.Load(indexed, master)
	mm.Load(core.LoadSpec{Name: "R", Strategy: core.RangeUniform, PartAttr: rel.Unique2}, master)
	check("a mirrored load and a range-declustered load")

	tm := teradata.NewMachine(sim.New(), &prm)
	tm.Load("A", rel.Unique1, []rel.Attr{rel.Unique2}, master)
	check("teradata.Machine.Load")
}

// TestGenerateStaysPrivate: Generate is pure. Two calls return equal
// relations in distinct arrays, and whatever a caller does to one result, the
// next call sees the pristine relation.
func TestGenerateStaysPrivate(t *testing.T) {
	const n, seed = 500, 78
	first := wisconsin.Generate(n, seed)
	want := checksum(first)
	second := wisconsin.Generate(n, seed)
	if got := checksum(second); got != want {
		t.Fatalf("second Generate returned checksum %x, want %x", got, want)
	}
	if &first[0] == &second[0] {
		t.Fatal("two Generate calls returned one backing array")
	}
	for i := range first {
		first[i] = rel.Tuple{}
	}
	if got := checksum(wisconsin.Generate(n, seed)); got != want {
		t.Errorf("Generate returned checksum %x after an earlier result was zeroed, want %x", got, want)
	}
}
