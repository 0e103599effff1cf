// Package subgraph implements the extension sketched in Section 6 of the
// paper (crediting Silvestri, "Subgraph Enumeration in Massive Graphs"):
// enumerating k-cliques in O(E^(k/2)/(M^(k/2−1)·B)) expected I/Os by the
// same color-coding decomposition as the triangle algorithm — c = sqrt(E/M)
// colors split the problem into c^k subproblems of expected size O(k²·M),
// each solved in internal memory.
package subgraph

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ctxutil"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/trienum"
)

// EmitK receives each k-clique exactly once as strictly increasing ranks.
// The slice is reused between calls; copy it to retain.
type EmitK func(verts []uint32)

// Info reports decomposition statistics.
type Info struct {
	// Cliques counts the enumerated copies (k-cliques for KClique,
	// pattern embeddings modulo Aut(H) for Pattern.Enumerate).
	Cliques     uint64
	Colors      int
	Subproblems int
	// MaxSubproblem is the largest subproblem edge count actually loaded,
	// to compare against the O(k²·M) expectation.
	MaxSubproblem int64
}

// KClique enumerates all k-cliques (k >= 3) of g. Emission order follows
// the decomposition, not any global order. ctx (which may be nil) is
// checked cooperatively between color-tuple subproblems; on cancellation
// the enumeration stops early and returns ctx.Err(), with the cliques
// already emitted forming a prefix of the full stream.
func KClique(ctx context.Context, sp *extmem.Space, g graph.Canonical, k int, seed uint64, emit EmitK) (Info, error) {
	var info Info
	if k < 3 {
		return info, fmt.Errorf("subgraph: k must be at least 3, got %d", k)
	}
	E := g.Edges.Len()
	if E == 0 {
		return info, nil
	}
	cfg := sp.Config()
	mark := sp.Mark()
	defer sp.Release(mark)

	// c = ceil(sqrt(E/M)) colors, as in Section 2. We cap c so the c^k
	// tuple loop stays tractable for the larger k this package exists for.
	c := 1
	for c*c < int(E)/cfg.M {
		c *= 2
	}
	for pow(c, k) > 1<<22 {
		c /= 2
	}
	if c < 1 {
		c = 1
	}
	info.Colors = c
	col := hashing.NewColoring(hashing.NewRand(seed), c)

	edges := sp.Alloc(E)
	g.Edges.CopyTo(edges)
	cc := uint64(c)
	pairKey := func(e extmem.Word) uint64 {
		return uint64(col.Color(graph.U(e)))*cc + uint64(col.Color(graph.V(e)))
	}
	emsort.SortRecords(edges, 1, pairKey)

	off := make([]int64, c*c+1)
	counts := make([]int64, c*c)
	for i := int64(0); i < E; i++ {
		counts[pairKey(edges.Read(i))]++
	}
	var acc int64
	for i, n := range counts {
		off[i] = acc
		acc += n
	}
	off[c*c] = acc

	// Iterate all c^k color tuples. A k-clique v1<...<vk with colors
	// (ξ(v1),...,ξ(vk)) is found in exactly that tuple's subproblem.
	tuple := make([]int, k)
	verts := make([]uint32, k)
	var iterate func(pos int) error
	iterate = func(pos int) error {
		if pos == k {
			if err := ctxutil.Err(ctx); err != nil {
				return err
			}
			return solveTuple(sp, edges, off, c, col.Color, tuple, verts, &info, emit)
		}
		for t := 0; t < c; t++ {
			tuple[pos] = t
			if err := iterate(pos + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err := iterate(0)
	return info, err
}

// solveTuple loads the union of the C(k,2) buckets for one color tuple and
// enumerates its properly colored k-cliques in internal memory.
func solveTuple(sp *extmem.Space, edges extmem.Extent, off []int64, c int, colorOf func(uint32) uint32, tuple []int, verts []uint32, info *Info, emit EmitK) error {
	k := len(tuple)
	// Gather the distinct bucket ranges for all position pairs.
	type rng struct{ lo, hi int64 }
	var ranges []rng
	var total int64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b := tuple[i]*c + tuple[j]
			r := rng{off[b], off[b+1]}
			if r.lo == r.hi {
				return nil // a required bucket is empty: no cliques here
			}
			dup := false
			for _, o := range ranges {
				if o == r {
					dup = true
					break
				}
			}
			if !dup {
				ranges = append(ranges, r)
				total += r.hi - r.lo
			}
		}
	}
	info.Subproblems++
	if total > info.MaxSubproblem {
		info.MaxSubproblem = total
	}

	// Load the subproblem into internal memory. Expected size O(k²·M);
	// the lease is charged for whatever it actually is.
	release := sp.LeaseAtMost(int(total) * 3)
	defer release()
	adj := make(map[uint32][]uint32)
	for _, r := range ranges {
		for i := r.lo; i < r.hi; i++ {
			e := edges.Read(i)
			adj[graph.U(e)] = append(adj[graph.U(e)], graph.V(e))
		}
	}
	starts := make([]uint32, 0, len(adj))
	for v, l := range adj {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		starts = append(starts, v)
	}
	// Iterate start vertices in sorted order, not map order: the emission
	// stream of a subproblem must be a pure function of the subproblem,
	// identical across runs (and across concurrent sessions).
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	// Depth-first clique extension with per-position color constraints.
	t0 := uint32(tuple[0])
	var extend func(pos int, cands []uint32)
	extend = func(pos int, cands []uint32) {
		want := uint32(tuple[pos])
		for _, v := range cands {
			if colorOf(v) != want {
				continue
			}
			verts[pos] = v
			if pos == k-1 {
				info.Cliques++
				emit(verts)
				continue
			}
			extend(pos+1, intersectSorted(cands, adj[v], v))
		}
	}
	for _, v := range starts {
		if colorOf(v) != t0 {
			continue
		}
		verts[0] = v
		extend(1, adj[v])
	}
	return nil
}

// intersectSorted returns elements > floor present in both sorted lists.
func intersectSorted(a, b []uint32, floor uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] > floor {
				out = append(out, a[i])
			}
			i++
			j++
		}
	}
	return out
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
		if r > 1<<30 {
			return 1 << 30
		}
	}
	return r
}

// CountTriangles sanity-bridges k=3 to the triangle algorithms: the
// 3-clique count must equal what trienum's cache-aware engine reports.
func CountTriangles(sp *extmem.Space, g graph.Canonical, seed uint64) (uint64, uint64) {
	var viaK uint64
	info, _ := KClique(nil, sp, g, 3, seed, func([]uint32) {})
	viaK = info.Cliques
	var viaT uint64
	trienum.ParallelLister(trienum.Exec{Workers: 1})(sp, g, seed, graph.Counter(&viaT))
	return viaK, viaT
}
