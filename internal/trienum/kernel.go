package trienum

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// kernel implements Lemma 2 (Hu, Tao and Chung, SIGMOD 2013, step 2 of
// Algorithm 1): enumerate every triangle {v, u, w} with v < u < w whose
// pivot edge {u, w} lies in pivots and whose cone edges {v, u}, {v, w} lie
// in edges. I/O complexity O(E/B + E'·E/(M·B)) where E' = |pivots|.
//
// edges must be sorted canonically (so each cone vertex's forward
// adjacency list is consecutive), and so must pivots: the kernel finds
// pivot edges by binary search over the memory-resident chunk. memEdges
// caps how many pivot edges are loaded per iteration; pass 0 to size it
// automatically from the Space's configured memory.
//
// Every cone vertex of edges is a candidate: the color-coded algorithms
// keep each triangle in exactly one subproblem by choosing the edge set
// (cacheaware.go), not by filtering cone vertices.
//
// The kernel touches no state outside sp, so concurrent invocations on
// distinct Spaces (the worker shards of parallel.go) are safe; emit must
// then be confined or pure. emit may itself touch sp (ListTriangles
// writes its output there).
func kernel(sp *extmem.Space, edges, pivots extmem.Extent, memEdges int, emit graph.Emit) {
	_ = kernelCtx(nil, sp, edges, pivots, memEdges, emit)
}

// kernelCtx is kernel with cooperative cancellation between pivot chunks
// — each chunk is one full scan of the edge set, the algorithm's natural
// pass boundary. A nil ctx never cancels.
func kernelCtx(ctx context.Context, sp *extmem.Space, edges, pivots extmem.Extent, memEdges int, emit graph.Emit) error {
	nPivots := pivots.Len()
	if nPivots == 0 || edges.Len() == 0 {
		return ctxutil.Err(ctx)
	}
	if memEdges <= 0 {
		// The constant α of the paper: pivot chunks of αM edges. The
		// native chunk state (kernelScratch) costs at most six words per
		// pivot edge, leased below.
		memEdges = (sp.Config().M - sp.Leased()) / 8
		if memEdges < 16 {
			memEdges = 16
		}
	}

	ks := newKernelScratch(int(min(int64(memEdges), nPivots)))
	for lo := int64(0); lo < nPivots; lo += int64(memEdges) {
		if err := ctxutil.Err(ctx); err != nil {
			return err
		}
		hi := lo + int64(memEdges)
		if hi > nPivots {
			hi = nPivots
		}
		ks.chunk(sp, edges, pivots.Slice(lo, hi), emit)
	}
	return nil
}

// kernelScratch is the native state of one kernel call, sized for its
// largest pivot chunk and reused by every chunk, so a call allocates once
// however many chunks it processes. For a chunk of n pivot edges it holds:
//
//   - pivots: the chunk itself, n words, searched by the pair path;
//   - ends: the Γ_mem slots of each pivot's two endpoints, n words, read
//     by the pivot path;
//   - keys: Γ_mem, the chunk's endpoint vertices, as an open-addressing
//     table of vertex+1 (0 marks an empty slot) with linear probing and a
//     multiplicative hash. Its size is the largest power of two not above
//     6n, so the at most 2n keys fill at most two thirds of it;
//   - stamp: one epoch byte per Γ_mem slot. Slot s is in Γ_v, the current
//     cone vertex's neighbors in Γ_mem, iff stamp[s] equals the group's
//     epoch, so moving to the next cone vertex costs one increment;
//   - lv: Γ_v in ascending order, for the pair path. That path runs only
//     when |Γ_v|² ≤ n, so lv needs ⌊√n⌋ entries.
//
// That is at most (16n + 30n + 1 + 4√n)/8 words: 5.75 words per pivot
// edge plus a constant, within the 6n words each chunk leases
// (TestKernelScratchFootprint).
type kernelScratch struct {
	pivots []extmem.Word
	ends   []uint32
	keys   []uint32
	stamp  []uint8
	lv     []uint32

	mask  uint32 // table size - 1 for the current chunk
	shift uint32 // 32 - log2(table size)
	top   int32  // slot of vertex 2^32-1 (whose key+1 wraps to 0), or -1
	epoch uint8
}

// kernelHashMul is the 32-bit golden-ratio multiplier of Fibonacci
// hashing: the high bits of k·kernelHashMul index the table.
const kernelHashMul = 0x9E3779B9

// kernelTableSize is the Γ_mem table size for a chunk of n ≥ 1 pivot
// edges: the largest power of two not above 6n.
func kernelTableSize(n int) int { return 1 << (bits.Len(uint(6*n)) - 1) }

func newKernelScratch(n int) *kernelScratch {
	size := kernelTableSize(n)
	return &kernelScratch{
		pivots: make([]extmem.Word, n),
		ends:   make([]uint32, 2*n),
		keys:   make([]uint32, size),
		// One slot past the table is reserved for vertex 2^32-1.
		stamp: make([]uint8, size+1),
		lv:    make([]uint32, 0, int(math.Sqrt(float64(n)))),
	}
}

// reset empties Γ_mem and sizes its table for a chunk of n pivot edges.
func (ks *kernelScratch) reset(n int) {
	size := kernelTableSize(n)
	clear(ks.keys[:size])
	ks.mask = uint32(size - 1)
	ks.shift = uint32(33 - bits.Len(uint(size)))
	ks.top = -1
}

// insert adds vertex x to Γ_mem and returns its slot.
func (ks *kernelScratch) insert(x uint32) uint32 {
	k := x + 1
	if k == 0 {
		ks.top = int32(ks.mask) + 1
		return uint32(ks.top)
	}
	for s := (k * kernelHashMul) >> ks.shift; ; s = (s + 1) & ks.mask {
		switch ks.keys[s] {
		case k:
			return s
		case 0:
			ks.keys[s] = k
			return s
		}
	}
}

// find returns the slot of vertex x in Γ_mem, or -1 if x is not in it.
func (ks *kernelScratch) find(x uint32) int32 {
	k := x + 1
	if k == 0 {
		return ks.top
	}
	for s := (k * kernelHashMul) >> ks.shift; ; s = (s + 1) & ks.mask {
		switch ks.keys[s] {
		case k:
			return int32(s)
		case 0:
			return -1
		}
	}
}

// nextEpoch starts a new cone-vertex group: no slot carries the new
// epoch, so Γ_v is empty. Stamps are cleared when the epoch wraps.
func (ks *kernelScratch) nextEpoch() {
	ks.epoch++
	if ks.epoch == 0 {
		clear(ks.stamp)
		ks.epoch = 1
	}
}

// chunk processes one memory-resident chunk of pivot edges against a full
// scan of the edge set.
func (ks *kernelScratch) chunk(sp *extmem.Space, edges, chunk extmem.Extent, emit graph.Emit) {
	defer sp.Unlease(sp.LeaseUpTo(int(chunk.Len()) * 6))

	// Load the chunk and build Γ_mem, the vertices it touches.
	n := int(chunk.Len())
	pivots := ks.pivots[:n]
	chunk.Load(pivots)
	ks.reset(n)
	for i, e := range pivots {
		if i > 0 && e < pivots[i-1] {
			panic("trienum: kernel pivots are not sorted")
		}
		ks.ends[2*i] = ks.insert(graph.U(e))
		ks.ends[2*i+1] = ks.insert(graph.V(e))
	}

	// Scan the edge set grouped by cone vertex v; for each group compute
	// Γ_v = {u : (v,u) ∈ edges, u ∈ Γ_mem} and enumerate pivot edges with
	// both endpoints in Γ_v. Within a group we choose the cheaper of the
	// two enumeration orders: all pairs of Γ_v (|Γ_v|² work) or all chunk
	// pivots (|chunk| work). Both emit in canonical pivot order. flush
	// reports whether it emitted.
	var (
		curV uint32
		nv   int // |Γ_v|; lv holds it while it fits
	)
	flush := func() bool {
		if nv < 2 {
			return false
		}
		emitted := false
		if nv*nv <= n {
			// The pivots (u, ·) form one run of the sorted chunk: find
			// it by binary search, then walk it along Γ_v's ascending
			// tail.
			lv, lo := ks.lv, 0
			for i, u := range lv {
				k, _ := slices.BinarySearch(pivots[lo:], graph.PackOrdered(u, 0))
				lo += k
				p := lo
				for _, w := range lv[i+1:] {
					e := graph.PackOrdered(u, w)
					for p < n && pivots[p] < e {
						p++
					}
					if p == n || graph.U(pivots[p]) != u {
						break
					}
					if pivots[p] == e {
						emit(curV, u, w)
						emitted = true
					}
				}
			}
			return emitted
		}
		stamp, ends, ep := ks.stamp, ks.ends, ks.epoch
		for i, e := range pivots {
			if stamp[ends[2*i]] == ep && stamp[ends[2*i+1]] == ep {
				emit(curV, graph.U(e), graph.V(e))
				emitted = true
			}
		}
		return emitted
	}
	// The edge set is read a span at a time (a block, or the whole extent
	// on a native Space) and charged one word read per word consumed, as a
	// per-word Read loop would be. emit may touch sp and evict the span's
	// block, so after a flush that emitted the span is re-taken at the next
	// word — at the I/O cost the per-word loop's next Read would pay.
	m := edges.Len()
	for i := int64(0); i < m; {
		span := edges.Span(i)
		for j, e := range span {
			v, u := graph.U(e), graph.V(e)
			emitted := false
			if i+int64(j) == 0 || v != curV {
				emitted = flush()
				curV, nv = v, 0
				ks.nextEpoch()
				ks.lv = ks.lv[:0]
			}
			if s := ks.find(u); s >= 0 {
				ks.stamp[s] = ks.epoch
				if nv < cap(ks.lv) {
					ks.lv = append(ks.lv, u)
				}
				nv++
			}
			if emitted {
				span = span[:j+1]
				break
			}
		}
		i += int64(len(span))
	}
	sp.CountReads(m)
	flush()
}
