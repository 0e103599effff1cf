package trienum

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// The paper distinguishes triangle *enumeration* (each triangle is handed
// to emit while its edges are memory-resident; nothing is materialized)
// from triangle *listing* (triangles are written to external memory).
// Listing costs an extra Θ(t/B) I/Os for t triangles — significant on
// triangle-dense graphs, where t = Θ(E^1.5) makes the output itself as
// expensive as the enumeration. ListTriangles materializes the output so
// that the experiments can measure exactly this gap, and
// VerifyEnumeration is an external-memory checker for the enumeration
// contract over a materialized list.

// TripleWords is the storage stride of a materialized triangle.
const TripleWords = 2

// packTriple stores a triangle in two words: (v1, v2) and v3.
func packTriple(a, b, c uint32) (extmem.Word, extmem.Word) {
	return extmem.Word(a)<<32 | extmem.Word(b), extmem.Word(c)
}

func unpackTriple(w0, w1 extmem.Word) (a, b, c uint32) {
	return uint32(w0 >> 32), uint32(w0), uint32(w1)
}

// Lister runs an enumeration algorithm, materializing its output.
type Lister func(sp *extmem.Space, g graph.Canonical, seed uint64, emit graph.Emit) Info

// ParallelLister adapts the cache-aware engine to the Lister signature,
// so listing experiments exercise the engine that serves queries. The
// engine's emission stream is deterministic in the seed and the graph, so
// the two passes of ListTriangles agree as required.
func ParallelLister(exec Exec) Lister {
	return EngineLister(func(sp *extmem.Space, g graph.Canonical, seed uint64, emit graph.Emit) (Info, []extmem.Stats, error) {
		return CacheAwareParallel(sp, g, seed, Options{}, exec, emit)
	})
}

// EngineLister adapts one run of an engine entry point (with its
// algorithm-specific arguments bound) to the Lister signature. The
// workers' I/Os are absorbed into sp, keeping sp.Stats() the full cost of
// the run. Listers have no error channel, so an engine error — a
// cancelled exec.Ctx, or the deterministic algorithm's invariant check —
// panics.
func EngineLister(run func(sp *extmem.Space, g graph.Canonical, seed uint64, emit graph.Emit) (Info, []extmem.Stats, error)) Lister {
	return func(sp *extmem.Space, g graph.Canonical, seed uint64, emit graph.Emit) Info {
		info, workerStats, err := run(sp, g, seed, emit)
		if err != nil {
			panic(fmt.Sprintf("trienum: engine run failed: %v", err))
		}
		for _, w := range workerStats {
			sp.Absorb(w)
		}
		return info
	}
}

// ListTriangles enumerates with run and writes every triangle to a fresh
// extent of TripleWords-stride records, returning the extent and the
// enumeration info (of the writing pass). The write cost Θ(t/B) is
// charged like any other I/O.
//
// The output size is unknown in advance, and the space allocator follows
// stack discipline, so the output extent must exist before the algorithm
// establishes its allocation mark. ListTriangles therefore runs twice
// with the same seed: a counting pass sizes the output, a second pass
// fills it. (A production system would stream the output instead; the
// second pass keeps the I/O accounting of a single enumeration clean.)
func ListTriangles(sp *extmem.Space, g graph.Canonical, seed uint64, run Lister) (extmem.Extent, Info) {
	var t int64
	run(sp, g, seed, func(_, _, _ uint32) { t++ })
	out := sp.Alloc(t * TripleWords)
	w := emio.NewWriter(out)
	info := run(sp, g, seed, func(a, b, c uint32) {
		w0, w1 := packTriple(a, b, c)
		w.Append(w0)
		w.Append(w1)
	})
	return w.Written(), info
}

// VerifyEnumeration checks a materialized triangle list against the
// enumeration contract using sorting and merge scans (O(sort(t) + sort(E))
// I/Os):
//
//   - every record is strictly ordered (v1 < v2 < v3),
//   - no triangle appears twice,
//   - all three edges of every triangle exist in the canonical edge set.
//
// It does not check completeness (that every triangle was found); tests
// establish completeness against the in-memory oracle.
func VerifyEnumeration(sp *extmem.Space, g graph.Canonical, list extmem.Extent) error {
	n := list.Len()
	if n%TripleWords != 0 {
		return fmt.Errorf("trienum: list length %d not a multiple of the record stride", n)
	}
	t := n / TripleWords
	if t == 0 {
		return nil
	}
	mark := sp.Mark()
	defer sp.Release(mark)

	// Ordering check + duplicate check via a sorted copy.
	sorted := sp.Alloc(n)
	list.CopyTo(sorted)
	for i := int64(0); i < t; i++ {
		a, b, c := unpackTriple(sorted.Read(TripleWords*i), sorted.Read(TripleWords*i+1))
		if !(a < b && b < c) {
			return fmt.Errorf("trienum: record %d = {%d,%d,%d} is not strictly increasing", i, a, b, c)
		}
	}
	// The record sorters order by the first word only; records sharing a
	// (v1,v2) prefix need a secondary sort of their third vertices before
	// adjacent-duplicate detection.
	emsort.SortRecords(sorted, TripleWords, emsort.Identity)
	sortRunsByThird(sp, sorted, t)
	for i := int64(1); i < t; i++ {
		if sorted.Read(TripleWords*i) == sorted.Read(TripleWords*(i-1)) &&
			sorted.Read(TripleWords*i+1) == sorted.Read(TripleWords*(i-1)+1) {
			a, b, c := unpackTriple(sorted.Read(TripleWords*i), sorted.Read(TripleWords*i+1))
			return fmt.Errorf("trienum: triangle {%d,%d,%d} emitted more than once", a, b, c)
		}
	}

	// Edge-existence: check each of the three edges by building the edge
	// key list of the triangles, sorting, and merging against the edges.
	for leg := 0; leg < 3; leg++ {
		keys := sp.Alloc(t)
		for i := int64(0); i < t; i++ {
			a, b, c := unpackTriple(sorted.Read(TripleWords*i), sorted.Read(TripleWords*i+1))
			var k extmem.Word
			switch leg {
			case 0:
				k = graph.PackOrdered(a, b)
			case 1:
				k = graph.PackOrdered(a, c)
			case 2:
				k = graph.PackOrdered(b, c)
			}
			keys.Write(i, k)
		}
		emsort.Sort(keys, emsort.Identity)
		var ei int64
		edges := g.Edges
		for i := int64(0); i < t; i++ {
			k := keys.Read(i)
			for ei < edges.Len() && edges.Read(ei) < k {
				ei++
			}
			if ei >= edges.Len() || edges.Read(ei) != k {
				return fmt.Errorf("trienum: leg %d of some triangle uses nonexistent edge {%d,%d}",
					leg, graph.U(k), graph.V(k))
			}
		}
	}
	return nil
}

// sortRunsByThird sorts, within every run of records sharing their first
// word (the packed (v1,v2) pair), the records by their second word.
func sortRunsByThird(sp *extmem.Space, sorted extmem.Extent, t int64) {
	var lo int64
	for lo < t {
		w0 := sorted.Read(TripleWords * lo)
		hi := lo + 1
		for hi < t && sorted.Read(TripleWords*hi) == w0 {
			hi++
		}
		if hi-lo > 1 {
			mark := sp.Mark()
			thirds := sp.Alloc(hi - lo)
			for i := lo; i < hi; i++ {
				thirds.Write(i-lo, sorted.Read(TripleWords*i+1))
			}
			emsort.Sort(thirds, emsort.Identity)
			for i := lo; i < hi; i++ {
				sorted.Write(TripleWords*i+1, thirds.Read(i-lo))
			}
			sp.Release(mark)
		}
		lo = hi
	}
}

// ReadTriple returns record i of a materialized list.
func ReadTriple(list extmem.Extent, i int64) (a, b, c uint32) {
	return unpackTriple(list.Read(TripleWords*i), list.Read(TripleWords*i+1))
}

// ListLen returns the number of triangles in a materialized list.
func ListLen(list extmem.Extent) int64 { return list.Len() / TripleWords }
