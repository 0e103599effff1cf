package repro

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// fifthNormalFormRelation builds a relation that is the join of its own
// projections, so that reconstructing it from its decomposition is
// lossless: a handful of base rows closed under the ternary join
// dependency.
func fifthNormalFormRelation() []JoinRow {
	set := map[JoinRow]bool{}
	for _, r := range []JoinRow{
		{"ann", "acme", "vacuum"},
		{"ann", "acme", "toaster"},
		{"ann", "bolt", "vacuum"},
		{"bob", "bolt", "toaster"},
		{"bob", "cord", "kettle"},
		{"eve", "acme", "kettle"},
	} {
		set[r] = true
	}
	for {
		var rows []JoinRow
		for r := range set {
			rows = append(rows, r)
		}
		added := false
		for _, r := range joinNaive(DecomposeJoinRows(rows)) {
			if !set[r] {
				set[r] = true
				added = true
			}
		}
		if !added {
			sortJoinRows(rows)
			return rows
		}
	}
}

// joinNaive is an in-memory nested-loop reference join.
func joinNaive(d JoinDecomposition) []JoinRow {
	bt := map[string][]string{}
	for _, p := range d.BT {
		bt[p.A] = append(bt[p.A], p.B)
	}
	st := map[JoinPair]bool{}
	for _, p := range d.ST {
		st[p] = true
	}
	var out []JoinRow
	for _, p := range d.SB {
		for _, ty := range bt[p.B] {
			if st[JoinPair{p.A, ty}] {
				out = append(out, JoinRow{p.A, p.B, ty})
			}
		}
	}
	sortJoinRows(out)
	return out
}

func sortJoinRows(rows []JoinRow) {
	slices.SortFunc(rows, func(a, b JoinRow) int {
		return cmp.Or(cmp.Compare(a.Salesperson, b.Salesperson),
			cmp.Compare(a.Brand, b.Brand), cmp.Compare(a.ProductType, b.ProductType))
	})
}

// joinRows runs the public join and returns its rows, sorted.
func joinRows(t *testing.T, dec JoinDecomposition, opt JoinOptions) ([]JoinRow, JoinStats) {
	t.Helper()
	var got []JoinRow
	st, err := dec.Join(opt, func(r JoinRow) { got = append(got, r) })
	if err != nil {
		t.Fatalf("%v: %v", opt.Algorithm, err)
	}
	sortJoinRows(got)
	return got, st
}

// TestJoinReconstructsRelation: every join algorithm reconstructs a 5NF
// relation from its projections exactly — no row lost, none invented.
func TestJoinReconstructsRelation(t *testing.T) {
	rel := fifthNormalFormRelation()
	dec := DecomposeJoinRows(rel)
	for _, alg := range []Algorithm{CacheAware, CacheOblivious, Deterministic, HuTaoChung} {
		got, st := joinRows(t, dec, JoinOptions{Algorithm: alg, Seed: 5})
		if !slices.Equal(got, rel) {
			t.Fatalf("%v: reconstructed\n%v\nwant\n%v", alg, got, rel)
		}
		if st.Rows != uint64(len(rel)) {
			t.Errorf("%v: JoinStats.Rows=%d want %d", alg, st.Rows, len(rel))
		}
	}
}

// TestJoinMatchesNaiveOnRandomRelations: on decompositions that need not
// come from a 5NF relation, the triangle join agrees with the naive
// in-memory join of the three projections.
func TestJoinMatchesNaiveOnRandomRelations(t *testing.T) {
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%02d", prefix, i) }
	for trial := 0; trial < 5; trial++ {
		var dec JoinDecomposition
		nS, nB, nT := 8+trial, 6, 7
		for s := 0; s < nS; s++ {
			for b := 0; b < nB; b++ {
				if (s*7+b*3+trial)%3 == 0 {
					dec.SB = append(dec.SB, JoinPair{name("s", s), name("b", b)})
				}
			}
		}
		for b := 0; b < nB; b++ {
			for ty := 0; ty < nT; ty++ {
				if (b*5+ty+trial)%2 == 0 {
					dec.BT = append(dec.BT, JoinPair{name("b", b), name("t", ty)})
				}
			}
		}
		for s := 0; s < nS; s++ {
			for ty := 0; ty < nT; ty++ {
				if (s+ty*11+trial)%4 != 1 {
					dec.ST = append(dec.ST, JoinPair{name("s", s), name("t", ty)})
				}
			}
		}
		want := joinNaive(dec)
		got, _ := joinRows(t, dec, JoinOptions{Algorithm: CacheOblivious, Seed: uint64(trial)})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: join\n%v\nnaive\n%v", trial, got, want)
		}
	}
}

// TestJoinEmptyInput: an empty decomposition joins to no rows.
func TestJoinEmptyInput(t *testing.T) {
	var dec JoinDecomposition
	st, err := dec.Join(JoinOptions{}, func(JoinRow) { t.Fatal("no rows expected") })
	if err != nil || st.Rows != 0 {
		t.Errorf("empty join: stats=%+v err=%v", st, err)
	}
}

// TestJoinRejectsBadMachine: an invalid simulated machine is an error,
// not a panic.
func TestJoinRejectsBadMachine(t *testing.T) {
	var dec JoinDecomposition
	if _, err := dec.Join(JoinOptions{MemoryWords: 100, BlockWords: 33}, func(JoinRow) {}); err == nil {
		t.Error("non-power-of-two block size accepted")
	}
}
