package trienum

import (
	"context"
	"slices"

	"repro/internal/ctxutil"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
)

// The parallel cache-oblivious engine. The Section 3 recursion decomposes
// into independent units because its randomness is path-split (see the
// oblivious struct): a node's Poly4 draw and its children's Rands are a
// pure function of the node's position in the tree, and every emission
// path flows through full-word-tiebreak sorts, so a subtree's triangle
// stream is a pure function of its (edge set, color vector, depth, hash
// chain, node Rand) — not of the order its parent happened to leave the
// edges in, nor of anything its siblings do.
//
// The coordinator therefore expands the top of the recursion tree inline,
// natively: it replicates the sequential node's structural work (the
// high-degree census, the coloring refinement, the eight compatibility
// partitions) on Go slices, and cuts the tree into two kinds of shard
// tasks, appended in exactly the sequential emission order:
//
//   - a Lemma 1 task per local high-degree vertex, running against the
//     node's frozen pre-pass segment with the previously-processed
//     vertices filtered out of the found wedges — equivalent, triangle for
//     triangle and in the same order, to the sequential pass on the
//     reduced segment, because removing an edge {a,b} with a or b among
//     the processed vertices removes exactly the triangles the filter
//     drops, and a sorted stream restricted to a subset keeps its order;
//   - a subtree task per recursion node below the split frontier, running
//     the unmodified sequential recursion on a private copy of the node's
//     segment and annotations.
//
// The worker-pool engine (runTasks) replays completed tasks strictly in
// task order, so the overall stream is byte-identical to a single
// ObliviousCtx run at every worker count. The I/O accounting is the
// engine's own: as in the cache-aware engine every task is charged a cold
// private cache, and the coordinator's inline expansion is charged one
// scan (the root copy-in) rather than the recursion's per-level
// repartition traffic. The totals agree with themselves at every worker
// count; they are what the Section 3 experiments measure.

const (
	// obSplitDepth is the depth of the split frontier: nodes at this depth
	// (up to 64 of them) become subtree tasks instead of being expanded
	// inline by the coordinator. Two levels keep the planner's native
	// footprint at O(E) words while yielding enough tasks to feed and
	// balance any practical worker count — subtree sizes concentrate
	// around E/16 (Lemma 4), and skewed nodes still split because the
	// engine dispatches tasks dynamically.
	obSplitDepth = 2
	// obSplitMinEdges stops inline expansion early for small nodes: below
	// this size a subtree is cheaper to solve whole than to keep
	// splitting, and the resulting tasks are plentiful enough already.
	obSplitMinEdges = 1024
)

// ObliviousParallel is the cache-oblivious randomized algorithm of
// Section 3 executed by the worker-pool engine: the recursion's local
// high-degree passes and its depth-obSplitDepth subtrees run as tasks on
// exec.Workers shards. The triangle stream is byte-identical to
// ObliviousCtx's with the same seed, at every worker count, and so are
// the summed I/O stats (which are the engine's own, as documented
// above). The second return value is
// the per-worker I/O breakdown. A non-nil error is exec.Ctx's
// cancellation error; the triangles emitted before it are a prefix of the
// full stream.
func ObliviousParallel(sp *extmem.Space, g graph.Canonical, seed uint64, exec Exec, emit graph.Emit) (Info, []extmem.Stats, error) {
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
	root := sp.Snapshot(work)[:E]

	maxDepth := 0
	for d := int64(1); d < E; d *= 4 {
		maxDepth++
	}
	an := make([]extmem.Word, E)
	for i := range an {
		an[i] = 1<<32 | 1 // root coloring ξ0 ≡ 1 on both endpoints
	}
	p := &obPlanner{ctx: ctx, info: &info, maxDepth: maxDepth}
	p.plan(root, an, [3]uint32{1, 1, 1}, 0, nil, hashing.NewRand(seed))
	if p.err != nil {
		return info, nil, p.err
	}
	for len(p.arena)%cfg.B != 0 {
		p.arena = append(p.arena, 0) // shard cores are whole blocks
	}
	stats, err := runTasks(ctx, cfg, p.arena, p.tasks, workers, emit)
	for _, u := range p.infos {
		mergeObInfo(&info, u)
	}
	return info, stats, err
}

// obPlanner expands the top of the recursion tree, laying the tasks' input
// segments out in one arena (the shared region the worker shards read) and
// collecting the tasks in sequential emission order. infos is parallel to
// tasks; each subtree task records its own recursion bookkeeping there
// (the slice is fully grown before runTasks starts, so the per-index
// writes race with nothing).
type obPlanner struct {
	ctx      context.Context
	info     *Info
	maxDepth int
	arena    []extmem.Word
	tasks    []shardTask
	infos    []Info
	err      error
}

func (p *obPlanner) appendArena(words ...[]extmem.Word) int64 {
	off := int64(len(p.arena))
	for _, w := range words {
		p.arena = append(p.arena, w...)
	}
	return off
}

// plan mirrors oblivious.recurse node for node: same cutoffs, same
// bookkeeping, same draw order from the node Rand (the Poly4, then one
// Split per child, unconditionally), same stable partitions — except that
// partitions produce fresh slices instead of permuting in place, which is
// emission-equivalent because subtree streams are set-determined.
func (p *obPlanner) plan(ed, an []extmem.Word, col [3]uint32, depth int, chain []hashing.Poly4, rnd *hashing.Rand) {
	if p.err != nil || len(ed) == 0 {
		return
	}
	if err := ctxutil.Err(p.ctx); err != nil {
		p.err = err
		return
	}
	n := int64(len(ed))
	if depth >= p.maxDepth || n <= obliviousBaseCutoff || depth >= obSplitDepth || n <= obSplitMinEdges {
		p.addSubtreeTask(ed, an, col, depth, chain, *rnd)
		return
	}

	// Inline-expanded node: the coordinator does the node's own
	// bookkeeping; its Lemma 1 passes and its descendant subtrees run on
	// shards.
	p.info.Subproblems++
	for len(p.info.Recursion) <= depth {
		p.info.Recursion = append(p.info.Recursion, RecursionLevel{Level: len(p.info.Recursion)})
	}
	lv := &p.info.Recursion[depth]
	lv.Subproblems++
	lv.TotalEdges += n
	if n > lv.MaxEdges {
		lv.MaxEdges = n
	}

	// Step 1: local high-degree vertices (degree >= n/8 in this segment),
	// one Lemma 1 task each against the frozen pre-pass segment.
	high := planHigh(ed)
	if len(high) > 0 {
		frozenOff := p.appendArena(ed)
		frozenLen := n
		for j, v := range high {
			if len(ed) == 0 {
				break
			}
			p.addHighDegTask(frozenOff, frozenLen, v, slices.Clone(high[:j]), col, depth, chain)
			vv := v
			ed, an = filterPair(ed, an, func(e, _ extmem.Word) bool {
				return graph.U(e) != vv && graph.V(e) != vv
			})
			p.info.HighDegVertices++
		}
	}
	if len(ed) == 0 {
		return
	}

	// Step 2: refine the coloring, updating the annotations. ed and an are
	// private to this node (fresh slices from the parent's partition or
	// the root copy), so in-place refinement is safe.
	b := hashing.NewPoly4(rnd)
	childChain := append(make([]hashing.Poly4, 0, len(chain)+1), chain...)
	childChain = append(childChain, b)
	for i, e := range ed {
		a := an[i]
		xu := 2*uint32(a>>32) - uint32(b.Bit(uint64(graph.U(e))))
		xv := 2*uint32(a) - uint32(b.Bit(uint64(graph.V(e))))
		an[i] = extmem.Word(xu)<<32 | extmem.Word(xv)
	}

	// Step 3: the eight subproblems, splitting a child Rand per slot
	// unconditionally, exactly as the sequential recursion does.
	for bits := 0; bits < 8; bits++ {
		childRnd := rnd.Split(uint64(bits))
		zeta := [3]uint32{
			2*col[0] - uint32(bits>>0&1),
			2*col[1] - uint32(bits>>1&1),
			2*col[2] - uint32(bits>>2&1),
		}
		p01 := extmem.Word(zeta[0])<<32 | extmem.Word(zeta[1])
		p12 := extmem.Word(zeta[1])<<32 | extmem.Word(zeta[2])
		p02 := extmem.Word(zeta[0])<<32 | extmem.Word(zeta[2])
		childEd, childAn := filterPair(ed, an, func(_, a extmem.Word) bool {
			return a == p01 || a == p12 || a == p02
		})
		p.plan(childEd, childAn, zeta, depth+1, childChain, childRnd)
	}
}

// addSubtreeTask hands one whole recursion node to a worker: the task
// copies the node's segment and annotations from the arena into private
// extents and runs the unmodified sequential recursion on them.
func (p *obPlanner) addSubtreeTask(ed, an []extmem.Word, col [3]uint32, depth int, chain []hashing.Poly4, rnd hashing.Rand) {
	n := int64(len(ed))
	off := p.appendArena(ed, an)
	// Exact-capacity chain copy: recurse appends to it, and an append that
	// fit in shared capacity would race with a sibling task's.
	ch := make([]hashing.Poly4, len(chain))
	copy(ch, chain)
	maxDepth := p.maxDepth
	idx := len(p.tasks)
	p.infos = append(p.infos, Info{})
	p.tasks = append(p.tasks, func(shard *extmem.Space, emit graph.Emit) {
		loc := &oblivious{
			sp:       shard,
			emit:     emit,
			info:     &p.infos[idx],
			chain:    ch,
			maxDepth: maxDepth,
		}
		loc.work = shard.Alloc(n)
		shard.ExtentAt(off, n).CopyTo(loc.work)
		loc.ann = shard.Alloc(n)
		shard.ExtentAt(off+n, n).CopyTo(loc.ann)
		loc.scratchE = shard.Alloc(n)
		loc.scratchA = shard.Alloc(n)
		r := rnd
		// A nil-ctx recursion cannot fail; tasks run to completion so a
		// cancelled run's merged stream stays a prefix of the full one.
		_ = loc.recurse(0, n, col, depth, &r)
	})
}

// addHighDegTask hands one local high-degree pass to a worker: Lemma 1 for
// vertex v against the node's frozen pre-pass segment, keeping only wedges
// disjoint from the vertices processed before v (whose edges the
// sequential path had already removed) and triangles proper for the node's
// color vector.
func (p *obPlanner) addHighDegTask(off, n int64, v uint32, skip []uint32, col [3]uint32, depth int, chain []hashing.Poly4) {
	ch := make([]hashing.Poly4, len(chain))
	copy(ch, chain)
	p.infos = append(p.infos, Info{})
	p.tasks = append(p.tasks, func(shard *extmem.Space, emit graph.Emit) {
		colorOf := func(u uint32) uint32 {
			xi := uint32(1)
			for i := 0; i < depth; i++ {
				xi = 2*xi - uint32(ch[i].Bit(uint64(u)))
			}
			return xi
		}
		seg := shard.ExtentAt(off, n)
		enumerateContaining(shard, seg, v, emsort.FunnelSortRecords, func(u, w uint32) {
			if slices.Contains(skip, u) || slices.Contains(skip, w) {
				return
			}
			t := graph.MakeTriple(v, u, w)
			if colorOf(t.V1) == col[0] && colorOf(t.V2) == col[1] && colorOf(t.V3) == col[2] {
				emit(t.V1, t.V2, t.V3)
			}
		})
	})
}

// planHigh is the native replica of localHighDegree's census: the vertices
// of degree >= n/8 within the segment, ascending.
func planHigh(ed []extmem.Word) []uint32 {
	ends := make([]uint32, 0, 2*len(ed))
	for _, e := range ed {
		ends = append(ends, graph.U(e), graph.V(e))
	}
	slices.Sort(ends)
	var high []uint32
	threshold := float64(len(ed)) / 8
	for i := 0; i < len(ends); {
		j := i
		for j < len(ends) && ends[j] == ends[i] {
			j++
		}
		if float64(j-i) >= threshold {
			high = append(high, ends[i])
		}
		i = j
	}
	return high
}

// filterPair stable-filters the edge and annotation slices in lockstep,
// returning fresh slices — the planner's counterpart of the sequential
// partition, which is stable on the kept prefix.
func filterPair(ed, an []extmem.Word, keep func(e, a extmem.Word) bool) ([]extmem.Word, []extmem.Word) {
	outE := make([]extmem.Word, 0, len(ed))
	outA := make([]extmem.Word, 0, len(ed))
	for i, e := range ed {
		if keep(e, an[i]) {
			outE = append(outE, e)
			outA = append(outA, an[i])
		}
	}
	return outE, outA
}

// mergeObInfo folds a task's recursion bookkeeping into the run total.
// Triangles are counted once, globally, by the engine's merged emit;
// tasks' own Triangles fields stay zero.
func mergeObInfo(dst *Info, u Info) {
	dst.Subproblems += u.Subproblems
	dst.BaseCases += u.BaseCases
	dst.HighDegVertices += u.HighDegVertices
	for len(dst.Recursion) < len(u.Recursion) {
		dst.Recursion = append(dst.Recursion, RecursionLevel{Level: len(dst.Recursion)})
	}
	for i, lv := range u.Recursion {
		d := &dst.Recursion[i]
		d.Subproblems += lv.Subproblems
		d.TotalEdges += lv.TotalEdges
		if lv.MaxEdges > d.MaxEdges {
			d.MaxEdges = lv.MaxEdges
		}
	}
}
