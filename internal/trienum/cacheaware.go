package trienum

import (
	"math"

	"repro/internal/ctxutil"
	"repro/internal/emio"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
)

// Options exposes ablation knobs for experiments on the cache-aware
// algorithm's design choices. The zero value is the paper's algorithm.
type Options struct {
	// DisableHighDegree skips step 1 (Lemma 1 on vertices with degree
	// greater than sqrt(E·M)). The algorithm remains correct — the color
	// triples still cover every triangle — but Lemma 3's bound on X_ξ no
	// longer holds on skewed degree distributions, and the I/O cost of
	// step 3 degrades accordingly.
	DisableHighDegree bool
}

// CacheAwareParallel enumerates all triangles of g with the randomized
// cache-aware algorithm of Section 2, using O(E^1.5/(sqrt(M)·B)) I/Os in
// expectation:
//
//  1. Triangles with a high-degree vertex (deg > sqrt(E·M)) are found by
//     the Lemma 1 subroutine, one vertex at a time. There are fewer than
//     sqrt(E/M) such vertices; their edges are then dropped.
//  2. A 4-wise independent coloring ξ: V → [c], c = ceil(sqrt(E/M)),
//     partitions the remaining edges into color-pair buckets E_{τ1,τ2}.
//  3. Each of the c³ color triples (τ1,τ2,τ3) is solved by the Lemma 2
//     kernel with pivot set E_{τ2,τ3} and edge set E_{τ1,τ2} ∪ E_{τ1,τ3},
//     the edges whose lower endpoint — the cone vertex — has color τ1.
//
// The Lemma 1 passes and the color-triple kernels run as tasks on
// exec.Workers shards of the worker-pool engine (parallel.go). Triangles
// are emitted in rank space, exactly once each; the stream and the summed
// I/O stats are identical for every worker count, and deterministic in
// seed. The second return value is the per-worker I/O breakdown of the
// parallel phases (the coordinator's own I/Os accrue to sp as usual). A
// non-nil error is exec.Ctx's cancellation error; the triangles emitted
// before it are a prefix of the full stream.
func CacheAwareParallel(sp *extmem.Space, g graph.Canonical, seed uint64, opt Options, exec Exec, emit graph.Emit) (Info, []extmem.Stats, error) {
	var info Info
	emit = countingEmit(&info, emit)
	E := g.Edges.Len()
	if E == 0 {
		return info, nil, ctxutil.Err(exec.Ctx)
	}
	ctx := exec.Ctx
	if err := ctxutil.Err(ctx); err != nil {
		return info, nil, err
	}
	cfg := sp.Config()
	workers := exec.workers()
	mark := sp.Mark()
	defer sp.Release(mark)

	work := sp.Alloc(E)
	g.Edges.CopyTo(work)

	curLen := E
	var workerStats []extmem.Stats
	if !opt.DisableHighDegree {
		var err error
		curLen, workerStats, err = highDegreeParallel(ctx, sp, work, g, workers, emit, &info)
		if err != nil {
			return info, workerStats, err
		}
	}

	c := ceilSqrt(float64(E) / float64(cfg.M))
	info.Colors = c
	col := hashing.NewColoring(hashing.NewRand(seed), c)
	ws, err := solveColoredParallel(ctx, sp, work.Prefix(curLen), col.Color, c, workers, &info, emit)
	return info, extmem.AddStatsVec(workerStats, ws), err
}

// solveTriple solves one color triple (τ1,τ2,τ3): run the kernel with
// pivot set E_{τ2,τ3} over the cone buckets E_{τ1,τ2} ∪ E_{τ1,τ3}. The
// buckets are keyed by the colors of (lower, upper) endpoint, so every
// lower endpoint of a cone-bucket edge has color τ1, and each triangle
// v < u < w is found exactly once, in the triple of its colors
// (ξ(v), ξ(u), ξ(w)). When τ2 = τ3 the two cone buckets are one, scanned
// in place; otherwise they are merged into scratch, preserving sort order.
// It is the body of one engine task (solveColoredParallel); the task's
// emissions are a pure function of the frozen edges and the triple, which
// is what makes the merged stream scheduling-independent.
func solveTriple(sp *extmem.Space, edges extmem.Extent, off []int64, c, t1, t2, t3 int, scratch extmem.Extent, emit graph.Emit) {
	piv := bucketAt(edges, off, c, t2, t3)
	solveTripleRange(sp, edges, off, c, t1, t2, t3, 0, piv.Len(), 0, scratch, emit)
}

// solveTripleRange is solveTriple restricted to the pivot rows
// [pivLo, pivHi) of E_{τ2,τ3}, with an explicit kernel chunk size. The
// kernel's pivot loop processes chunks of memEdges rows independently —
// each chunk is one full scan of the cone buckets — so running the ranges
// [k·memEdges, (k+1)·memEdges) as separate invocations and concatenating
// their emissions reproduces solveTriple's stream exactly. That is the
// native mode's work-stealing grain: a skewed triple splits into per-chunk
// tasks the engine's dynamic dispatch balances across workers
// (parallel.go), at the price of re-merging the cone buckets per chunk.
// scratch must hold coneWords words.
func solveTripleRange(sp *extmem.Space, edges extmem.Extent, off []int64, c, t1, t2, t3 int, pivLo, pivHi int64, memEdges int, scratch extmem.Extent, emit graph.Emit) {
	cone := bucketAt(edges, off, c, t1, t2)
	if t2 != t3 {
		cone = mergeSortedInto(scratch, cone, bucketAt(edges, off, c, t1, t3))
	}
	kernel(sp, cone, bucketAt(edges, off, c, t2, t3).Slice(pivLo, pivHi), memEdges, emit)
}

// coneWords is the scratch solveTripleRange needs for the triple's merged
// cone buckets: none when τ2 = τ3 and the single bucket is scanned in
// place.
func coneWords(edges extmem.Extent, off []int64, c, t1, t2, t3 int) int64 {
	if t2 == t3 {
		return 0
	}
	return bucketAt(edges, off, c, t1, t2).Len() + bucketAt(edges, off, c, t1, t3).Len()
}

// highDegreeCut returns the lowest rank r0 whose degree exceeds the
// sqrt(E·M) threshold of step 1; ranks [r0, NumVertices) form the
// high-degree set V_h. Degrees are nondecreasing in rank, so the set is a
// suffix of the rank range, found by walking back from the top.
func highDegreeCut(g graph.Canonical, e, m float64) int {
	th := math.Sqrt(e * m)
	r0 := g.NumVertices
	for r0 > 0 && float64(g.Degrees.Read(int64(r0-1))) > th {
		r0--
	}
	return r0
}

// colorPairKey is the sort key of the color-pair buckets:
// (colorOf(u), colorOf(v)) packed into one integer. The sorters tie-break
// equal keys by the full word, so each bucket comes out internally sorted
// in canonical edge order.
func colorPairKey(colorOf func(uint32) uint32, c int) emsort.Key {
	cc := uint64(c)
	return func(e extmem.Word) uint64 {
		return uint64(colorOf(graph.U(e)))*cc + uint64(colorOf(graph.V(e)))
	}
}

// bucketOffsets scans the color-sorted edges and returns the c²+1 bucket
// boundary offsets, accumulating the partition potential X_ξ (pairs of
// edges sharing a bucket, Lemma 3's random variable) into info.
func bucketOffsets(edges extmem.Extent, colorOf func(uint32) uint32, c int, info *Info) []int64 {
	pairKey := colorPairKey(colorOf, c)
	off := make([]int64, c*c+1)
	counts := make([]int64, c*c)
	emio.ForEach(edges, func(_ int64, e extmem.Word) {
		counts[pairKey(e)]++
	})
	var acc int64
	for i, n := range counts {
		off[i] = acc
		acc += n
		info.X += uint64(n) * uint64(n-1) / 2
	}
	off[c*c] = acc
	return off
}

// bucketAt returns the (t1,t2) bucket of the color-sorted edge extent.
func bucketAt(edges extmem.Extent, off []int64, c, t1, t2 int) extmem.Extent {
	i := t1*c + t2
	return edges.Slice(off[i], off[i+1])
}

// forEachTriple visits the color triples (τ1,τ2,τ3) in canonical order,
// skipping triples whose buckets cannot contain a triangle. The order is
// part of the emission contract: the engine replays completed triples in
// exactly this sequence.
func forEachTriple(off []int64, c int, fn func(t1, t2, t3 int)) {
	empty := func(t1, t2 int) bool {
		i := t1*c + t2
		return off[i+1] == off[i]
	}
	for t1 := 0; t1 < c; t1++ {
		for t2 := 0; t2 < c; t2++ {
			if empty(t1, t2) {
				continue // no {v1,v2} edges for this (τ1,τ2)
			}
			for t3 := 0; t3 < c; t3++ {
				if empty(t1, t3) || empty(t2, t3) {
					continue
				}
				fn(t1, t2, t3)
			}
		}
	}
}

// mergeSortedInto merges the sorted extents a and b into the prefix of dst
// and returns that prefix.
func mergeSortedInto(dst, a, b extmem.Extent) extmem.Extent {
	ra, rb := emio.NewReader(a), emio.NewReader(b)
	ha, okA := ra.Next()
	hb, okB := rb.Next()
	w := emio.NewWriter(dst)
	for okA || okB {
		if okA && (!okB || ha < hb) {
			w.Append(ha)
			ha, okA = ra.Next()
		} else {
			w.Append(hb)
			hb, okB = rb.Next()
		}
	}
	return w.Written()
}
