// Package trienum implements the triangle-enumeration algorithms of
//
//	Rasmus Pagh and Francesco Silvestri,
//	"The Input/Output Complexity of Triangle Enumeration", PODS 2014.
//
// Three top-level algorithms are provided, all asymptotically I/O-optimal
// at O(E^1.5/(sqrt(M)·B)), each with exactly one entry point:
//
//   - CacheAwareParallel (Section 2): randomized, color-codes the
//     low-degree subgraph with c = sqrt(E/M) colors from a 4-wise
//     independent family and solves c^3 color-triple subproblems with the
//     Hu–Tao–Chung kernel.
//   - ObliviousParallel (Section 3): randomized and cache-oblivious;
//     recursively refines a vertex coloring one random bit per level,
//     solving eight (c0,c1,c2)-enumeration subproblems per node.
//   - DeterministicParallel (Section 4): derandomizes the cache-aware
//     algorithm by building the coloring greedily, one bit per level, from
//     a small-bias family, maintaining the paper's potential invariant (4).
//
// Each runs its independent subproblems on the worker-pool engine
// (parallel.go); Exec{Workers: 1} runs the same decomposition on one
// worker, with the same emission stream and I/O totals as any other
// worker count. The served queries and the paper experiments both call
// these entry points.
//
// All algorithms take a graph in canonical form (graph.Canonical) and emit
// each triangle exactly once, in rank space, with v1 < v2 < v3, at a moment
// when all three edges are resident in simulated internal memory.
package trienum

import (
	"math"

	"repro/internal/emio"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// Info reports what an enumeration run did, for experiments and tests.
type Info struct {
	// Triangles is the number of emit calls.
	Triangles uint64
	// HighDegVertices is the number of vertices handled by the Lemma 1
	// step (global step 1 for the cache-aware algorithms, summed over all
	// recursion nodes for the cache-oblivious one).
	HighDegVertices int
	// Colors is the number of colors c used by the flat algorithms.
	Colors int
	// X is the realized partition potential X_ξ = Σ C(|E_τ1,τ2}|, 2); the
	// quantity Lemma 3 bounds in expectation by E·M.
	X uint64
	// Subproblems counts kernel invocations (flat algorithms) or recursion
	// nodes (oblivious).
	Subproblems int
	// BaseCases counts Dementiev base-case invocations (oblivious only).
	BaseCases int
	// Levels records, for the deterministic algorithm, the potential value
	// of the chosen coloring at each greedy level.
	Levels []LevelInfo
	// Recursion records, for the cache-oblivious algorithm, the
	// per-level subproblem population — the quantities Lemmas 4 and 5
	// bound (expected size E/4^i over 8^i subproblems, total E·2^i).
	Recursion []RecursionLevel
}

// RecursionLevel aggregates the subproblems at one depth of the
// cache-oblivious recursion.
type RecursionLevel struct {
	Level       int
	Subproblems int
	TotalEdges  int64
	MaxEdges    int64
}

// LevelInfo records one greedy derandomization level.
type LevelInfo struct {
	// Candidate is the index of the chosen family member.
	Candidate int
	// Potential is 4^i·X_nonadj/c² + 2^i·X_adj/c for the chosen coloring.
	Potential float64
	// Budget is the invariant ceiling (1+α)^i·E·M it must stay under.
	Budget float64
}

// enumerateContaining implements Lemma 1: enumerate all triangles of the
// edge set seg that contain vertex v, in O(sort(E)) I/Os. Edges need not
// be sorted. Each found triangle {v, u, w} is passed to found with
// (u, w) = the non-v edge's endpoints (u < w in rank order); the caller
// adds v and applies any color filter before emitting.
func enumerateContaining(sp *extmem.Space, seg extmem.Extent, v uint32, sorter graph.SortFunc, found func(u, w uint32)) {
	n := seg.Len()
	if n == 0 {
		return
	}
	mark := sp.Mark()
	defer sp.Release(mark)

	// Γ_v: the neighbors of v.
	gammaBuf := sp.Alloc(n)
	gw := emio.NewWriter(gammaBuf)
	emio.ForEach(seg, func(_ int64, e extmem.Word) {
		u, w := graph.U(e), graph.V(e)
		if u == v {
			gw.Append(extmem.Word(w))
		} else if w == v {
			gw.Append(extmem.Word(u))
		}
	})
	gamma := gw.Written()
	if gamma.Len() < 2 {
		return
	}
	sorter(gamma, 1, emsort.Identity)

	// E_v: edges whose smaller endpoint lies in Γ_v. Work on a sorted copy
	// of seg (sorted packed edges are sorted by smaller endpoint).
	edges := sp.Alloc(n)
	seg.CopyTo(edges)
	sorter(edges, 1, emsort.Identity)
	ev := sp.Alloc(n)
	evw := emio.NewWriter(ev)
	mergeByKey(edges, gamma, func(e extmem.Word) uint64 { return uint64(graph.U(e)) },
		func(e extmem.Word) { evw.Append(e) })
	evEdges := evw.Written()

	// E'_v: of those, edges whose larger endpoint also lies in Γ_v. Each
	// such edge {u, w} closes the triangle {v, u, w}.
	sorter(evEdges, 1, func(e extmem.Word) uint64 { return uint64(graph.V(e)) })
	mergeByKey(evEdges, gamma, func(e extmem.Word) uint64 { return uint64(graph.V(e)) },
		func(e extmem.Word) { found(graph.U(e), graph.V(e)) })
}

// mergeByKey scans extent a (sorted by key) against the sorted unique
// extent b, invoking onMatch for every record of a whose key appears in b.
func mergeByKey(a, b extmem.Extent, key func(extmem.Word) uint64, onMatch func(extmem.Word)) {
	var i, j int64
	na, nb := a.Len(), b.Len()
	for i < na && j < nb {
		wa := a.Read(i)
		ka := key(wa)
		kb := uint64(b.Read(j))
		switch {
		case ka < kb:
			i++
		case ka > kb:
			j++
		default:
			onMatch(wa)
			i++
		}
	}
}

// sortRecordsFunc adapts emsort.SortRecords to graph.SortFunc.
var sortRecordsFunc graph.SortFunc = emsort.SortRecords

// ceilSqrt returns the smallest integer c >= sqrt(x).
func ceilSqrt(x float64) int {
	if x <= 1 {
		return 1
	}
	c := int(math.Ceil(math.Sqrt(x)))
	for float64(c-1)*float64(c-1) >= x {
		c--
	}
	return c
}

// countingEmit wraps emit, counting into info.Triangles.
func countingEmit(info *Info, emit graph.Emit) graph.Emit {
	return func(a, b, c uint32) {
		info.Triangles++
		emit(a, b, c)
	}
}
