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

// TestLoadersLeaveSharedMasterAlone pins the contract Shared rests on: the
// machine loaders copy their input into fragment files and never write it —
// not when a clustered index sorts each fragment, not when mirroring builds
// backups, not on the Teradata model, and not when a later update rewrites
// pages of the loaded relation.
func TestLoadersLeaveSharedMasterAlone(t *testing.T) {
	const n, seed = 3000, 77
	master := wisconsin.Shared(n, seed)
	want := checksum(master)
	if &wisconsin.Shared(n, seed)[0] != &master[0] {
		t.Fatal("two Shared calls returned different backing arrays")
	}
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

// TestGenerateStaysPrivate: whatever a caller does to a Generate result, later
// Generate and Shared calls see the pristine relation.
func TestGenerateStaysPrivate(t *testing.T) {
	const n, seed = 500, 78
	want := checksum(wisconsin.Generate(n, seed)) // first call: generates and memoizes
	for round := 0; round < 2; round++ {
		ts := wisconsin.Generate(n, seed)
		if got := checksum(ts); got != want {
			t.Fatalf("round %d: Generate returned checksum %x, want %x", round, got, want)
		}
		for i := range ts {
			ts[i] = rel.Tuple{}
		}
	}
	if got := checksum(wisconsin.Shared(n, seed)); got != want {
		t.Errorf("Shared returned checksum %x after Generate results were zeroed, want %x", got, want)
	}
}
