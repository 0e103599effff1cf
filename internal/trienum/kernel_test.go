package trienum

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
)

// refKernel is the Lemma 2 kernel as it was written with Go maps: the
// pivot set and Γ_mem as hash maps, Γ_v as a map cleared per cone vertex,
// and a per-triangle filter. It is the reference the map-free kernel must
// reproduce byte for byte, I/O for I/O.
func refKernel(sp *extmem.Space, edges, pivots extmem.Extent, memEdges int, filter func(v, u, w uint32) bool, emit graph.Emit) {
	nPivots := pivots.Len()
	if nPivots == 0 || edges.Len() == 0 {
		return
	}
	if memEdges <= 0 {
		memEdges = (sp.Config().M - sp.Leased()) / 8
		if memEdges < 16 {
			memEdges = 16
		}
	}
	for lo := int64(0); lo < nPivots; lo += int64(memEdges) {
		hi := min(lo+int64(memEdges), nPivots)
		refKernelChunk(sp, edges, pivots.Slice(lo, hi), filter, emit)
	}
}

func refKernelChunk(sp *extmem.Space, edges, chunk extmem.Extent, filter func(v, u, w uint32) bool, emit graph.Emit) {
	release := sp.LeaseAtMost(int(chunk.Len()) * 6)
	defer release()

	pivotList := make([]extmem.Word, chunk.Len())
	chunk.Load(pivotList)
	pivotSet := make(map[extmem.Word]struct{}, len(pivotList))
	gammaMem := make(map[uint32]struct{}, 2*len(pivotList))
	for _, e := range pivotList {
		pivotSet[e] = struct{}{}
		gammaMem[graph.U(e)] = struct{}{}
		gammaMem[graph.V(e)] = struct{}{}
	}
	var (
		curV   uint32
		lv     []uint32
		lvSet  = make(map[uint32]struct{})
		inited bool
	)
	flush := func() {
		if len(lv) < 2 {
			return
		}
		if int64(len(lv))*int64(len(lv)) <= int64(len(pivotList)) {
			for i := 0; i < len(lv); i++ {
				for j := i + 1; j < len(lv); j++ {
					u, w := lv[i], lv[j]
					if _, hit := pivotSet[graph.PackOrdered(u, w)]; hit {
						if filter == nil || filter(curV, u, w) {
							emit(curV, u, w)
						}
					}
				}
			}
			return
		}
		for _, e := range pivotList {
			u, w := graph.U(e), graph.V(e)
			if _, ok := lvSet[u]; !ok {
				continue
			}
			if _, ok := lvSet[w]; !ok {
				continue
			}
			if filter == nil || filter(curV, u, w) {
				emit(curV, u, w)
			}
		}
	}
	n := edges.Len()
	for i := int64(0); i < n; i++ {
		e := edges.Read(i)
		v, u := graph.U(e), graph.V(e)
		if !inited || v != curV {
			flush()
			curV = v
			inited = true
			lv = lv[:0]
			clear(lvSet)
		}
		if _, ok := gammaMem[u]; ok {
			lv = append(lv, u)
			lvSet[u] = struct{}{}
		}
	}
	flush()
}

// kernelInput is a kernel instance: canonically sorted edges over
// arbitrary uint32 vertex ids, and a canonically sorted pivot subset.
type kernelInput struct {
	name          string
	edges, pivots []extmem.Word
}

// kernelInputs builds the differential instances from rng. Vertex ids are
// scattered over the whole uint32 range and include 2^32-1, whose key+1
// wraps in the kernel's table.
func kernelInputs(rng *rand.Rand) []kernelInput {
	ids := func(k int) []uint32 {
		set := map[uint32]bool{math.MaxUint32: true}
		for len(set) < k {
			set[rng.Uint32()] = true
		}
		var out []uint32
		for x := range set {
			out = append(out, x)
		}
		slices.Sort(out)
		return out
	}
	var in []kernelInput
	add := func(name string, edges map[extmem.Word]bool, pivot func(extmem.Word) bool) {
		var ki kernelInput
		ki.name = name
		for e := range edges {
			ki.edges = append(ki.edges, e)
		}
		slices.Sort(ki.edges)
		for _, e := range ki.edges {
			if pivot(e) {
				ki.pivots = append(ki.pivots, e)
			}
		}
		in = append(in, ki)
	}
	all := func(extmem.Word) bool { return true }

	// Random graphs, dense enough for both enumeration orders, with all
	// edges or a random half as pivots.
	for _, shape := range []struct{ n, m int }{{30, 200}, {120, 900}, {400, 1500}} {
		vs := ids(shape.n)
		edges := map[extmem.Word]bool{}
		for len(edges) < shape.m {
			a, b := vs[rng.IntN(len(vs))], vs[rng.IntN(len(vs))]
			if a != b {
				edges[graph.Pack(a, b)] = true
			}
		}
		add(fmt.Sprintf("gnm%d", shape.n), edges, all)
		add(fmt.Sprintf("gnm%d/half", shape.n), edges, func(extmem.Word) bool { return rng.IntN(2) == 0 })
	}

	// Matchings: the pivots share no endpoint, so |Γ_mem| = 2n, the
	// table's worst case. Low-id cone vertices close triangles on
	// random matched pairs.
	for _, pairs := range []int{40, 300} {
		vs := ids(2*pairs + 20)
		cones, ends := vs[:20], vs[20:]
		edges, matching := map[extmem.Word]bool{}, map[extmem.Word]bool{}
		for i := 0; i < pairs; i++ {
			e := graph.Pack(ends[2*i], ends[2*i+1])
			edges[e], matching[e] = true, true
		}
		for _, c := range cones {
			for k := 0; k < pairs/3; k++ {
				i := rng.IntN(pairs)
				edges[graph.Pack(c, ends[2*i])] = true
				edges[graph.Pack(c, ends[2*i+1])] = true
			}
		}
		add(fmt.Sprintf("matching%d", pairs), edges, func(e extmem.Word) bool { return matching[e] })
		add(fmt.Sprintf("matching%d/all", pairs), edges, all)
	}

	// Stars: one center joined to every leaf, plus a few leaf-leaf
	// edges. The lowest id as center makes one huge cone group; the
	// highest makes every leaf a one-edge group.
	for _, center := range []string{"low", "high"} {
		vs := ids(301)
		c, leaves := vs[0], vs[1:]
		if center == "high" {
			c, leaves = vs[300], vs[:300]
		}
		edges := map[extmem.Word]bool{}
		for _, l := range leaves {
			edges[graph.Pack(c, l)] = true
		}
		for k := 0; k < 150; k++ {
			a, b := leaves[rng.IntN(len(leaves))], leaves[rng.IntN(len(leaves))]
			if a != b {
				edges[graph.Pack(a, b)] = true
			}
		}
		add("star/"+center, edges, all)
	}
	return in
}

// runKernel runs kern on a fresh Space holding the instance and returns
// its emission stream (12 bytes per triangle) and the Space's Stats. With
// touch set, every emission is also written to a ring of 4M words on the
// same Space, as a caller materializing its output there would: those
// writes evict blocks between the kernel's reads of the edge set.
func runKernel(cfg extmem.Config, in kernelInput, touch bool, run func(sp *extmem.Space, edges, pivots extmem.Extent, emit graph.Emit)) ([]byte, extmem.Stats) {
	sp := extmem.NewSpace(cfg)
	edges := sp.Alloc(int64(len(in.edges)))
	edges.Store(in.edges)
	pivots := sp.Alloc(int64(len(in.pivots)))
	pivots.Store(in.pivots)
	ring := sp.Alloc(4 * int64(cfg.M))
	sp.Flush()
	sp.DropCache()
	sp.ResetStats()
	var out []byte
	var k int64
	run(sp, edges, pivots, func(v, u, w uint32) {
		out = binary.LittleEndian.AppendUint32(out, v)
		out = binary.LittleEndian.AppendUint32(out, u)
		out = binary.LittleEndian.AppendUint32(out, w)
		if touch {
			ring.Write(k%ring.Len(), graph.PackOrdered(v, u))
			ring.Write((k+1)%ring.Len(), extmem.Word(w))
			k += 2
		}
	})
	return out, sp.Stats()
}

// TestKernelMatchesReference is the differential oracle of the map-free
// kernel: on every instance and chunk size, and whether or not emit
// writes to the kernel's own Space, it emits the reference kernel's
// stream byte for byte and moves exactly the same blocks, simulated and
// native.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2))
	inputs := kernelInputs(rng)
	cfgs := []extmem.Config{
		{M: 1024, B: 32},
		{M: 1024, B: 32, Native: true},
	}
	for _, in := range inputs {
		for _, memEdges := range []int{16, 17, 64, 0} {
			for _, touch := range []bool{false, true} {
				for _, cfg := range cfgs {
					name := fmt.Sprintf("%s/mem=%d/touch=%v/native=%v", in.name, memEdges, touch, cfg.Native)
					want, wantStats := runKernel(cfg, in, touch, func(sp *extmem.Space, edges, pivots extmem.Extent, emit graph.Emit) {
						refKernel(sp, edges, pivots, memEdges, nil, emit)
					})
					got, gotStats := runKernel(cfg, in, touch, func(sp *extmem.Space, edges, pivots extmem.Extent, emit graph.Emit) {
						kernel(sp, edges, pivots, memEdges, emit)
					})
					if !bytes.Equal(got, want) {
						t.Errorf("%s: stream differs: %d triangles, reference %d", name, len(got)/12, len(want)/12)
					}
					if gotStats != wantStats {
						t.Errorf("%s: stats %+v, reference %+v", name, gotStats, wantStats)
					}
					if len(in.pivots) == len(in.edges) && len(want) == 0 && in.name[:3] == "gnm" {
						t.Errorf("%s: instance has no triangles", name)
					}
				}
			}
		}
	}
}

// TestKernelEmitMayTouchSpace lists the triangles of a planted clique
// through the Hu–Tao–Chung kernel on a machine small enough that writing
// the output evicts the block the kernel is scanning. The list must be
// the oracle's, and the run must cost exactly what the per-word reference
// kernel costs under the same output writes, word reads included.
func TestKernelEmitMayTouchSpace(t *testing.T) {
	el := graph.PlantedClique(300, 3000, 25, 4)
	cfg := extmem.Config{M: 256, B: 16}
	list := func(run Lister) ([]graph.Triple, extmem.Stats) {
		sp := extmem.NewSpace(cfg)
		g := graph.CanonicalizeList(sp, el)
		sp.Flush()
		sp.DropCache()
		sp.ResetStats()
		out, _ := ListTriangles(sp, g, 0, run)
		st := sp.Stats()
		var got []graph.Triple
		for i := int64(0); i < ListLen(out); i++ {
			a, b, c := ReadTriple(out, i)
			got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
		}
		return got, st
	}
	got, gotStats := list(func(sp *extmem.Space, g graph.Canonical, _ uint64, emit graph.Emit) Info {
		return HuTaoChung(sp, g, emit)
	})
	want, wantStats := list(func(sp *extmem.Space, g graph.Canonical, _ uint64, emit graph.Emit) Info {
		refKernel(sp, g.Edges, g.Edges, 0, nil, emit)
		return Info{}
	})
	if ok, diag := graph.NewOracle(el).SameSet(got); !ok {
		t.Errorf("listed set wrong (%d triangles): %s", len(got), diag)
	}
	if !slices.Equal(got, want) {
		t.Errorf("list differs from the reference kernel's: %d triangles, reference %d", len(got), len(want))
	}
	if gotStats != wantStats {
		t.Errorf("stats %+v, reference %+v", gotStats, wantStats)
	}
}

// scratchWords is the kernel scratch footprint in machine words.
func scratchWords(ks *kernelScratch) int {
	bytes := 8*cap(ks.pivots) + 4*cap(ks.ends) + 4*cap(ks.keys) + cap(ks.stamp) + 4*cap(ks.lv)
	return (bytes + 7) / 8
}

// TestKernelScratchFootprint checks the kernel's native state against
// its lease: at most six words per pivot edge for every chunk length up
// to the automatic chunk size of a large machine.
func TestKernelScratchFootprint(t *testing.T) {
	maxChunk := (1 << 16) / 8
	for n := 1; n <= maxChunk; n++ {
		ks := newKernelScratch(n)
		if w := scratchWords(ks); w > 6*n {
			t.Fatalf("chunk of %d pivot edges: scratch is %d words, lease is %d", n, w, 6*n)
		}
		// The worst case fills Γ_mem with 2n distinct endpoints; the
		// table must keep at least one empty slot for a miss to end, and
		// the pair path's Γ_v list must hold ⌊√n⌋ vertices.
		if size := kernelTableSize(n); size <= 2*n || size > 6*n {
			t.Fatalf("chunk of %d pivot edges: table size %d", n, size)
		}
		if r := cap(ks.lv); r*r > n || (r+1)*(r+1) <= n {
			t.Fatalf("chunk of %d pivot edges: Γ_v list holds %d", n, r)
		}
	}
}

// TestKernelAllocsIndependentOfChunks checks that the kernel allocates its
// scratch once per call, not once per pivot chunk.
func TestKernelAllocsIndependentOfChunks(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var in kernelInput
	for _, ki := range kernelInputs(rng) {
		if ki.name == "gnm120" {
			in = ki
		}
	}
	const memEdges = 16
	if len(in.pivots) < 8*memEdges {
		t.Fatalf("instance has %d pivots, want at least %d", len(in.pivots), 8*memEdges)
	}
	sp := extmem.NewSpace(extmem.Config{M: 1 << 16, B: 64})
	edges := sp.Alloc(int64(len(in.edges)))
	edges.Store(in.edges)
	var count int
	emit := func(_, _, _ uint32) { count++ }
	one := testing.AllocsPerRun(20, func() {
		kernel(sp, edges, edges, len(in.edges), emit)
	})
	many := testing.AllocsPerRun(20, func() {
		kernel(sp, edges, edges, memEdges, emit)
	})
	if many > one {
		t.Errorf("kernel over %d chunks allocates %.0f times, over one chunk %.0f", (len(in.edges)+memEdges-1)/memEdges, many, one)
	}
	if count == 0 {
		t.Error("instance has no triangles")
	}
}

// TestKernelRejectsUnsortedPivots pins the pivot-order precondition that
// the pair path's binary search relies on.
func TestKernelRejectsUnsortedPivots(t *testing.T) {
	sp := newSpace()
	edges := sp.Alloc(3)
	edges.Store([]extmem.Word{graph.Pack(0, 1), graph.Pack(0, 2), graph.Pack(1, 2)})
	pivots := sp.Alloc(2)
	pivots.Store([]extmem.Word{graph.Pack(1, 2), graph.Pack(0, 1)})
	defer func() {
		if recover() == nil {
			t.Error("unsorted pivots did not panic")
		}
	}()
	kernel(sp, edges, pivots, 0, func(_, _, _ uint32) {})
}
