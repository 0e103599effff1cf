package analytics

import (
	"math"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

func newSpace() *extmem.Space {
	return extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6})
}

// cacheAware is the served cache-aware engine on one worker.
var cacheAware = trienum.ParallelLister(trienum.Exec{Workers: 1})

func profileOf(t *testing.T, el graph.EdgeList) (Profile, graph.Canonical) {
	t.Helper()
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	return Compute(sp, g, 1, cacheAware), g
}

func TestProfileClique(t *testing.T) {
	n := 10
	p, g := profileOf(t, graph.Clique(n))
	wantTotal := uint64(n * (n - 1) * (n - 2) / 6)
	if p.Total != wantTotal {
		t.Fatalf("total %d want %d", p.Total, wantTotal)
	}
	// Every vertex of K_n is in C(n-1, 2) triangles, clustering 1.
	per := uint64((n - 1) * (n - 2) / 2)
	for r := 0; r < n; r++ {
		if got := p.Counts.Read(int64(r)); got != extmem.Word(per) {
			t.Errorf("rank %d count %d want %d", r, got, per)
		}
		if c := p.LocalClustering(g, uint32(r)); math.Abs(c-1) > 1e-12 {
			t.Errorf("rank %d clustering %f want 1", r, c)
		}
	}
	if gc := p.GlobalClustering(); math.Abs(gc-1) > 1e-12 {
		t.Errorf("global clustering %f want 1", gc)
	}
	if ac := p.AverageLocalClustering(g); math.Abs(ac-1) > 1e-12 {
		t.Errorf("average clustering %f want 1", ac)
	}
}

func TestProfileTriangleFree(t *testing.T) {
	p, g := profileOf(t, graph.Grid(6, 6))
	if p.Total != 0 || p.GlobalClustering() != 0 || p.AverageLocalClustering(g) != 0 {
		t.Error("triangle-free graph must have zero statistics")
	}
	if p.Wedges == 0 {
		t.Error("grid has wedges")
	}
}

func TestProfileAgainstOracle(t *testing.T) {
	el := graph.PlantedClique(100, 400, 11, 7)
	oracle := graph.NewOracle(el)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	p := Compute(sp, g, 5, cacheAware)
	if p.Total != oracle.Count() {
		t.Fatalf("total %d, oracle %d", p.Total, oracle.Count())
	}
	// Recompute per-vertex counts from the oracle's triples.
	want := make(map[uint32]uint64)
	for _, tr := range oracle.Triples() {
		want[tr.V1]++
		want[tr.V2]++
		want[tr.V3]++
	}
	for r := 0; r < g.NumVertices; r++ {
		id := g.RankToID[r]
		if got := uint64(p.Counts.Read(int64(r))); got != want[id] {
			t.Errorf("vertex %d: count %d, oracle %d", id, got, want[id])
		}
	}
	// Wedge count cross-check.
	var wedges uint64
	deg := map[uint32]uint64{}
	for _, e := range el.Edges {
		deg[graph.U(e)]++
		deg[graph.V(e)]++
	}
	seen := map[uint64]bool{}
	_ = seen
	for _, d := range deg {
		wedges += d * (d - 1) / 2
	}
	if p.Wedges != wedges {
		t.Errorf("wedges %d, recomputed %d", p.Wedges, wedges)
	}
}

func TestTopK(t *testing.T) {
	// Planted clique: its members must dominate the top-k.
	el := graph.PlantedClique(200, 300, 12, 9)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	p := Compute(sp, g, 2, cacheAware)
	top := p.TopK(12)
	if len(top) != 12 {
		t.Fatalf("topk returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Triangles > top[i-1].Triangles {
			t.Fatal("topk not in decreasing order")
		}
	}
	// All top-12 counts must be at least C(11,2) = 55 (clique-internal).
	if top[11].Triangles < 55 {
		t.Errorf("12th vertex has %d triangles; planted clique guarantees 55", top[11].Triangles)
	}
	if p.TopK(0) != nil {
		t.Error("TopK(0) should be nil")
	}
	if got := p.TopK(10 * g.NumVertices); len(got) == 0 {
		t.Error("huge k should return all participating vertices")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	p, _ := profileOf(t, graph.Clique(8)) // all counts equal
	a := p.TopK(3)
	b := p.TopK(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopK not deterministic")
		}
	}
	if a[0].Rank > a[1].Rank {
		t.Error("ties should prefer lower ranks first")
	}
}

func TestProfileWithObliviousEnumerator(t *testing.T) {
	el := graph.GNM(80, 500, 3)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	p := Compute(sp, g, 4, trienum.EngineLister(func(sp *extmem.Space, g graph.Canonical, seed uint64, emit graph.Emit) (trienum.Info, []extmem.Stats, error) {
		return trienum.ObliviousParallel(sp, g, seed, trienum.Exec{Workers: 1}, emit)
	}))
	if p.Total != graph.NewOracle(el).Count() {
		t.Error("oblivious-backed profile wrong")
	}
}
