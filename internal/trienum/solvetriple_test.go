package trienum

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/emio"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
)

// refSolveTripleRange is the filtered-union formulation of a color triple:
// merge the distinct buckets among E_{τ1,τ2}, E_{τ1,τ3} and E_{τ2,τ3} into
// scratch and run the per-word reference kernel with pivot rows
// [pivLo, pivHi) of E_{τ2,τ3}, emitting only triangles whose cone vertex
// has color τ1. solveTripleRange must reproduce its stream byte for byte.
func refSolveTripleRange(sp *extmem.Space, edges extmem.Extent, off []int64, c, t1, t2, t3 int, pivLo, pivHi int64, memEdges int, colorOf func(uint32) uint32, scratch extmem.Extent, emit graph.Emit) {
	b12 := bucketAt(edges, off, c, t2, t3)
	var parts []extmem.Extent
	for _, b := range []extmem.Extent{bucketAt(edges, off, c, t1, t2), bucketAt(edges, off, c, t1, t3), b12} {
		dup := false
		for _, p := range parts {
			dup = dup || p.Base() == b.Base()
		}
		if !dup {
			parts = append(parts, b)
		}
	}
	// k-way merge of the sorted parts.
	readers := make([]*emio.Reader, len(parts))
	heads := make([]extmem.Word, len(parts))
	alive := make([]bool, len(parts))
	for i, p := range parts {
		readers[i] = emio.NewReader(p)
		heads[i], alive[i] = readers[i].Next()
	}
	w := emio.NewWriter(scratch)
	for {
		best := -1
		for i := range parts {
			if alive[i] && (best < 0 || heads[i] < heads[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		w.Append(heads[best])
		heads[best], alive[best] = readers[best].Next()
	}
	var filter func(v, u, w uint32) bool
	if t1 != t2 {
		filter = func(v, _, _ uint32) bool { return colorOf(v) == uint32(t1) }
	}
	refKernel(sp, w.Written(), b12.Slice(pivLo, pivHi), memEdges, filter, emit)
}

// coloredEdges is a graph's edge set sorted into color-pair buckets and
// frozen, as solveColoredParallel lays it out for its tasks.
type coloredEdges struct {
	shared  []extmem.Word
	off     []int64
	e       int64
	c       int
	colorOf func(uint32) uint32
}

func colorEdges(el graph.EdgeList, c int, colorOf func(uint32) uint32) coloredEdges {
	sp := extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6})
	g := graph.CanonicalizeList(sp, el)
	work := sp.Alloc(g.Edges.Len())
	g.Edges.CopyTo(work)
	emsort.SortRecords(work, 1, colorPairKey(colorOf, c))
	var info Info
	off := bucketOffsets(work, colorOf, c, &info)
	return coloredEdges{shared: sp.Snapshot(work), off: off, e: work.Len(), c: c, colorOf: colorOf}
}

// runTriple runs one triple's pivot ranges, each as an engine task on a
// fresh shard, and returns the concatenated stream (12 bytes per
// triangle) and the summed stats.
func (ce coloredEdges) runTriple(cfg extmem.Config, ranges [][2]int64, solve func(shard *extmem.Space, seg extmem.Extent, lo, hi int64, emit graph.Emit)) ([]byte, extmem.Stats) {
	var out []byte
	var st extmem.Stats
	for _, r := range ranges {
		shard := extmem.NewShardSpace(cfg, ce.shared)
		release := shard.LeaseAtMost(ce.c*ce.c + 1)
		solve(shard, shard.ExtentAt(0, ce.e), r[0], r[1], func(v, u, w uint32) {
			out = binary.LittleEndian.AppendUint32(out, v)
			out = binary.LittleEndian.AppendUint32(out, u)
			out = binary.LittleEndian.AppendUint32(out, w)
		})
		release()
		st.Add(shard.Stats())
	}
	return out, st
}

// pivotRanges splits n pivot rows into runs of step rows (the whole range
// when step is 0).
func pivotRanges(n, step int64) [][2]int64 {
	if step <= 0 || step >= n {
		return [][2]int64{{0, n}}
	}
	var out [][2]int64
	for lo := int64(0); lo < n; lo += step {
		out = append(out, [2]int64{lo, min(lo+step, n)})
	}
	return out
}

// TestSolveTripleMatchesFilteredUnion checks the cone-bucket triple solve
// against the filtered-union formulation on every triple of random and
// hand-built colorings: pivot ranges split at chunk boundaries, explicit
// and automatic chunk sizes, simulated and native. Streams must be
// byte-identical; simulated I/Os may only fall.
func TestSolveTripleMatchesFilteredUnion(t *testing.T) {
	el := graph.PlantedClique(120, 700, 14, 9)
	nv := uint32(120)
	colorings := []struct {
		name    string
		c       int
		colorOf func(uint32) uint32
	}{
		// One color class holds every vertex: every triangle is (0,0,0).
		{"one-class", 3, func(uint32) uint32 { return 0 }},
		// Rank halves: triangles (0,0,0), (0,0,1), (0,1,1), (1,1,1).
		{"halves", 2, func(v uint32) uint32 { return min(2*v/nv, 1) }},
		// Parity: adds τ1 = τ3 ≠ τ2.
		{"parity", 2, func(v uint32) uint32 { return v & 1 }},
		{"mod3", 3, func(v uint32) uint32 { return v % 3 }},
	}
	for _, c := range []int{2, 3, 5} {
		col := hashing.NewColoring(hashing.NewRand(uint64(100+c)), c)
		colorings = append(colorings, struct {
			name    string
			c       int
			colorOf func(uint32) uint32
		}{fmt.Sprintf("random%d", c), c, col.Color})
	}
	cfgs := []extmem.Config{
		{M: 256, B: 16},
		{M: 256, B: 16, Native: true},
	}
	// Triangles found per triple shape, over the simulated runs.
	shapes := map[string]int{}
	shape := func(t1, t2, t3 int) string {
		switch {
		case t1 == t2 && t2 == t3:
			return "τ1=τ2=τ3"
		case t1 == t2:
			return "τ1=τ2"
		case t2 == t3:
			return "τ2=τ3"
		case t1 == t3:
			return "τ1=τ3"
		}
		return "distinct"
	}
	for _, cl := range colorings {
		ce := colorEdges(el, cl.c, cl.colorOf)
		c := cl.c
		// The automatic chunk size under the engine's bucket-index lease.
		auto := (256 - (c*c + 1)) / 8
		for _, cfg := range cfgs {
			forEachTriple(ce.off, c, func(t1, t2, t3 int) {
				nPiv := ce.off[t2*c+t3+1] - ce.off[t2*c+t3]
				for _, mem := range []int{16, 0} {
					grain := int64(mem)
					if mem == 0 {
						grain = int64(auto)
					}
					for _, step := range []int64{0, grain, 2 * grain} {
						name := fmt.Sprintf("%s/%d%d%d/mem=%d/step=%d/native=%v", cl.name, t1, t2, t3, mem, step, cfg.Native)
						ranges := pivotRanges(nPiv, step)
						want, wantStats := ce.runTriple(cfg, ranges, func(shard *extmem.Space, seg extmem.Extent, lo, hi int64, emit graph.Emit) {
							need := bucketAt(seg, ce.off, c, t1, t2).Len() + bucketAt(seg, ce.off, c, t1, t3).Len() + bucketAt(seg, ce.off, c, t2, t3).Len()
							refSolveTripleRange(shard, seg, ce.off, c, t1, t2, t3, lo, hi, mem, ce.colorOf, shard.Alloc(need), emit)
						})
						got, gotStats := ce.runTriple(cfg, ranges, func(shard *extmem.Space, seg extmem.Extent, lo, hi int64, emit graph.Emit) {
							scratch := shard.Alloc(coneWords(seg, ce.off, c, t1, t2, t3))
							if step == 0 && mem == 0 {
								solveTriple(shard, seg, ce.off, c, t1, t2, t3, scratch, emit)
								return
							}
							solveTripleRange(shard, seg, ce.off, c, t1, t2, t3, lo, hi, mem, scratch, emit)
						})
						if !bytes.Equal(got, want) {
							t.Errorf("%s: stream differs: %d triangles, reference %d", name, len(got)/12, len(want)/12)
						}
						if gotStats.IOs() > wantStats.IOs() {
							t.Errorf("%s: %d I/Os, reference %d", name, gotStats.IOs(), wantStats.IOs())
						}
						if !cfg.Native && step == 0 && mem == 0 {
							shapes[shape(t1, t2, t3)] += len(want) / 12
						}
					}
				}
			})
		}
	}
	for _, s := range []string{"τ1=τ2=τ3", "τ1=τ2", "τ2=τ3", "τ1=τ3", "distinct"} {
		if shapes[s] == 0 {
			t.Errorf("no triangle solved in a triple of shape %s", s)
		}
	}
}
