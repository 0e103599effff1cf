package trienum

import (
	"strings"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
)

func listWith(t *testing.T, el graph.EdgeList, run Lister) (*extmem.Space, graph.Canonical, extmem.Extent) {
	t.Helper()
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	list, _ := ListTriangles(sp, g, 3, run)
	return sp, g, list
}

var cacheAwareLister = ParallelLister(Exec{Workers: 1})

func TestListTrianglesMatchesOracle(t *testing.T) {
	el := graph.PlantedClique(80, 300, 10, 4)
	oracle := graph.NewOracle(el)
	sp, g, list := listWith(t, el, cacheAwareLister)
	if uint64(ListLen(list)) != oracle.Count() {
		t.Fatalf("listed %d, oracle %d", ListLen(list), oracle.Count())
	}
	var got []graph.Triple
	for i := int64(0); i < ListLen(list); i++ {
		a, b, c := ReadTriple(list, i)
		got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
	}
	if ok, diag := oracle.SameSet(got); !ok {
		t.Errorf("listed set wrong: %s", diag)
	}
	if err := VerifyEnumeration(sp, g, list); err != nil {
		t.Errorf("verification failed on a correct list: %v", err)
	}
}

func TestListTrianglesObliviousLister(t *testing.T) {
	el := graph.GNM(60, 350, 8)
	sp, g, list := listWith(t, el, EngineLister(func(sp *extmem.Space, g graph.Canonical, seed uint64, emit graph.Emit) (Info, []extmem.Stats, error) {
		return ObliviousParallel(sp, g, seed, Exec{Workers: 1}, emit)
	}))
	if uint64(ListLen(list)) != graph.NewOracle(el).Count() {
		t.Fatal("oblivious listing count mismatch")
	}
	if err := VerifyEnumeration(sp, g, list); err != nil {
		t.Error(err)
	}
}

func TestVerifyEnumerationCatchesDuplicates(t *testing.T) {
	el := graph.Clique(6)
	sp, g, list := listWith(t, el, cacheAwareLister)
	// Duplicate the first record into a fresh extent.
	bad := sp.Alloc(list.Len() + TripleWords)
	list.CopyTo(bad)
	bad.Write(list.Len(), list.Read(0))
	bad.Write(list.Len()+1, list.Read(1))
	err := VerifyEnumeration(sp, g, bad)
	if err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Errorf("duplicate not caught: %v", err)
	}
}

func TestVerifyEnumerationCatchesPhantomEdge(t *testing.T) {
	// A triangle over vertices that are not mutually adjacent.
	el := graph.Grid(4, 4) // triangle-free
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	fake := sp.Alloc(TripleWords)
	w0, w1 := packTriple(0, 1, 2)
	fake.Write(0, w0)
	fake.Write(1, w1)
	err := VerifyEnumeration(sp, g, fake)
	if err == nil || !strings.Contains(err.Error(), "nonexistent edge") {
		t.Errorf("phantom triangle not caught: %v", err)
	}
}

func TestVerifyEnumerationCatchesUnsorted(t *testing.T) {
	el := graph.Clique(4)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	bad := sp.Alloc(TripleWords)
	w0, w1 := packTriple(2, 1, 3) // not increasing
	bad.Write(0, w0)
	bad.Write(1, w1)
	err := VerifyEnumeration(sp, g, bad)
	if err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Errorf("unsorted record not caught: %v", err)
	}
}

func TestVerifyEnumerationEdgeCases(t *testing.T) {
	el := graph.Clique(5)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	if err := VerifyEnumeration(sp, g, sp.Alloc(0)); err != nil {
		t.Errorf("empty list should verify: %v", err)
	}
	if err := VerifyEnumeration(sp, g, sp.Alloc(3)); err == nil {
		t.Error("odd-length list should be rejected")
	}
}

func TestListingCostsOutputTraffic(t *testing.T) {
	// On a clique the materialization cost must be visible: listing I/Os
	// must exceed twice the enumeration I/Os (two passes) by roughly the
	// output traffic.
	el := graph.Clique(64)
	m := extmem.Config{M: 1 << 11, B: 1 << 5}

	sp := extmem.NewSpace(m)
	g := graph.CanonicalizeList(sp, el)
	sp.DropCache()
	sp.ResetStats()
	var n uint64
	cacheAwareLister(sp, g, 3, graph.Counter(&n))
	sp.Flush()
	enumIOs := sp.Stats().IOs()

	sp2 := extmem.NewSpace(m)
	g2 := graph.CanonicalizeList(sp2, el)
	sp2.DropCache()
	sp2.ResetStats()
	list, _ := ListTriangles(sp2, g2, 3, cacheAwareLister)
	sp2.Flush()
	listIOs := sp2.Stats().IOs()

	outBlocks := uint64(list.Len()) / uint64(m.B)
	if listIOs < 2*enumIOs+outBlocks/2 {
		t.Errorf("listing %d I/Os does not reflect output traffic (enum %d, output %d blocks)",
			listIOs, enumIOs, outBlocks)
	}
}

func TestRecursionInstrumentation(t *testing.T) {
	el := graph.GNM(300, 2400, 5)
	sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
	g := graph.CanonicalizeList(sp, el)
	var n uint64
	info, _, err := ObliviousParallel(sp, g, 1, Exec{Workers: 1}, graph.Counter(&n))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Recursion) == 0 {
		t.Fatal("no recursion levels recorded")
	}
	if info.Recursion[0].Subproblems != 1 || info.Recursion[0].TotalEdges != g.Edges.Len() {
		t.Errorf("level 0 = %+v, want 1 subproblem of %d edges", info.Recursion[0], g.Edges.Len())
	}
	for i, lv := range info.Recursion {
		if lv.MaxEdges > lv.TotalEdges || (lv.Subproblems > 0 && lv.TotalEdges == 0 && i > 0) {
			t.Errorf("level %d inconsistent: %+v", i, lv)
		}
	}
	// Subproblem count grows at most 8x per level.
	for i := 1; i < len(info.Recursion); i++ {
		if info.Recursion[i].Subproblems > 8*info.Recursion[i-1].Subproblems {
			t.Errorf("level %d has %d subproblems, parent level only %d",
				i, info.Recursion[i].Subproblems, info.Recursion[i-1].Subproblems)
		}
	}
}
