package rel

import (
	"testing"
	"testing/quick"
)

func TestPredMatch(t *testing.T) {
	var tp Tuple
	tp.Set(Unique1, 50)
	cases := []struct {
		p    Pred
		want bool
	}{
		{True(), true},
		{Pred{Attr: Unique1, Lo: 1, Hi: 0}, false},
		{Eq(Unique1, 50), true},
		{Eq(Unique1, 51), false},
		{Between(Unique1, 0, 49), false},
		{Between(Unique1, 0, 50), true},
		{Between(Unique1, 50, 100), true},
		{Between(Unique1, 51, 100), false},
	}
	for _, c := range cases {
		if got := c.p.Match(tp); got != c.want {
			t.Errorf("%v.Match(unique1=50) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSelectivity(t *testing.T) {
	cases := []struct {
		p    Pred
		n    int
		want float64
	}{
		{Between(Unique2, 0, 99), 10000, 0.01},
		{Between(Unique2, 0, 999), 10000, 0.1},
		{Eq(Unique2, 5), 10000, 0.0001},
		{True(), 10000, 1.0},
		{Pred{Attr: Unique1, Lo: 1, Hi: 0}, 10000, 0},
		{Between(Unique2, -100, 99), 10000, 0.01}, // clamped below
		{Between(Unique2, 9900, 20000), 10000, 0.01},
		{True(), 0, 0},
	}
	for _, c := range cases {
		if got := c.p.Selectivity(c.n); got != c.want {
			t.Errorf("%v.Selectivity(%d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestAttrByName(t *testing.T) {
	for a := Attr(0); a < NAttrs; a++ {
		got, ok := AttrByName(a.String())
		if !ok || got != a {
			t.Errorf("AttrByName(%q) = %v %v", a.String(), got, ok)
		}
	}
	if _, ok := AttrByName("nonsense"); ok {
		t.Error("AttrByName accepted a bogus name")
	}
}

func TestPredStrings(t *testing.T) {
	if True().String() != "true" {
		t.Errorf("True() = %q", True().String())
	}
	if s := (Pred{Attr: Unique1, Lo: 1, Hi: 0}).String(); s != "false" {
		t.Errorf("an empty range = %q", s)
	}
	if s := Eq(Ten, 3).String(); s != "ten = 3" {
		t.Errorf("Eq = %q", s)
	}
}

// Property: Match agrees with Selectivity over uniform attribute values —
// the fraction of [0,n) matching a clamped range equals its selectivity.
func TestSelectivityCountsMatches(t *testing.T) {
	f := func(lo, hi int16) bool {
		const n = 1000
		p := Between(Unique1, int32(lo), int32(hi))
		count := 0
		for i := 0; i < n; i++ {
			var tp Tuple
			tp.Set(Unique1, int32(i))
			if p.Match(tp) {
				count++
			}
		}
		return float64(count)/n == p.Selectivity(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Hash64 distributes uniform keys evenly across buckets.
func TestHashDistribution(t *testing.T) {
	const n, buckets = 100000, 8
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[Hash64(int32(i), 1)%buckets]++
	}
	for b, c := range counts {
		if c < n/buckets*9/10 || c > n/buckets*11/10 {
			t.Errorf("bucket %d has %d keys, want ~%d", b, c, n/buckets)
		}
	}
}

// Property: different seeds give (nearly) independent hash routings — the
// basis of the overflow hash-function switch.
func TestHashSeedsIndependent(t *testing.T) {
	same := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if Hash64(int32(i), 1)%8 == Hash64(int32(i), 2)%8 {
			same++
		}
	}
	// Expect ~1/8 agreement.
	if same < n/16 || same > n/4 {
		t.Errorf("seeds agree on %d/%d routings; want ~%d", same, n, n/8)
	}
}

func TestPartitionKeepsOrderAtExactSize(t *testing.T) {
	tuples := make([]Tuple, 10)
	site := make([]int32, len(tuples))
	for i := range tuples {
		tuples[i].Set(Unique1, int32(i))
		site[i] = int32(i * i % 3)
	}
	parts := Partition(tuples, site, 4)
	if len(parts) != 4 || len(parts[3]) != 0 {
		t.Fatalf("parts = %v", parts)
	}
	n := 0
	for j, part := range parts {
		if cap(part) != len(part) {
			t.Errorf("part %d: cap %d for %d tuples", j, cap(part), len(part))
		}
		last := int32(-1)
		for _, tp := range part {
			v := tp.Get(Unique1)
			if site[v] != int32(j) || v <= last {
				t.Errorf("part %d holds tuple %d after %d (site %d)", j, v, last, site[v])
			}
			last = v
			n++
		}
	}
	if n != len(tuples) {
		t.Errorf("%d of %d tuples placed", n, len(tuples))
	}
}
