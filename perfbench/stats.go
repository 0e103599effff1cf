package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have
// beyond it; below that, the percentile is noise and is refused.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs. It refuses a
// percentile with fewer than minTail samples strictly beyond its rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// needFor is the smallest sample count percentile accepts for p.
func needFor(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p/100*float64(n))) >= minTail {
			return n
		}
	}
}

// median is the middle value (mean of the two middle ones for even n),
// for small repeated measurements such as set-up times and probes.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mix64 is the splitmix64 finalizer: a bijective avalanche on 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// triKey hashes a triangle independently of the order of its vertices.
func triKey(a, b, c uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return mix64(mix64(mix64(uint64(a)+0x9e3779b97f4a7c15)^uint64(b)) ^ uint64(c))
}

// setDigest summarizes a multiset of triangles independently of emission
// order: the count plus the wrapping sum of the triangle hashes. A dropped,
// duplicated or foreign triangle changes it (the last two with
// overwhelming probability when the count happens to be restored).
type setDigest struct {
	N   int64
	Sum uint64
}

func (d *setDigest) add(a, b, c uint32) { d.N++; d.Sum += triKey(a, b, c) }
func (d *setDigest) sub(a, b, c uint32) { d.N--; d.Sum -= triKey(a, b, c) }

// seqDigest summarizes a triangle stream including its order.
type seqDigest uint64

func (d *seqDigest) add(a, b, c uint32) {
	*d = seqDigest(mix64(uint64(*d)*0x100000001b3 ^ uint64(a)<<42 ^ uint64(b)<<21 ^ uint64(c)))
}

// tris is a reusable flat buffer of emitted triangles; emit callbacks only
// append to it so that hashing stays outside the timed region.
type tris []uint32

func (t *tris) add(a, b, c uint32) { *t = append(*t, a, b, c) }

func (t tris) digests() (setDigest, seqDigest) {
	var s setDigest
	var q seqDigest
	for i := 0; i+2 < len(t); i += 3 {
		s.add(t[i], t[i+1], t[i+2])
		q.add(t[i], t[i+1], t[i+2])
	}
	return s, q
}

// sortedLex reports whether the triangles, each taken as given, are in
// strictly ascending lexicographic order — the Ordered delivery contract.
func (t tris) sortedLex() bool {
	for i := 3; i+2 < len(t); i += 3 {
		p, q := t[i-3:i], t[i:i+3]
		if p[0] > q[0] || p[0] == q[0] && (p[1] > q[1] || p[1] == q[1] && p[2] >= q[2]) {
			return false
		}
	}
	return true
}

// normEdge orders an edge's endpoints and packs them into one key.
func normEdge(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// referenceTriangles lists the triangles of an edge list with a plain
// in-memory algorithm that shares no code with the engine: orient every
// edge from lower to higher (degree, id) and intersect out-neighbour
// lists. Self-loops and duplicate edges are dropped first, as the engine
// does.
func referenceTriangles(edges [][2]uint32) setDigest {
	seen := make(map[uint64]struct{}, len(edges))
	deg := map[uint32]int{}
	var es [][2]uint32
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		k := normEdge(e[0], e[1])
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		es = append(es, e)
		deg[e[0]]++
		deg[e[1]]++
	}
	less := func(u, v uint32) bool { return deg[u] < deg[v] || deg[u] == deg[v] && u < v }
	out := map[uint32][]uint32{}
	for _, e := range es {
		u, v := e[0], e[1]
		if less(v, u) {
			u, v = v, u
		}
		out[u] = append(out[u], v)
	}
	for _, l := range out {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	var d setDigest
	for u, nu := range out {
		for _, v := range nu {
			nv := out[v]
			i, j := 0, 0
			for i < len(nu) && j < len(nv) {
				switch {
				case nu[i] < nv[j]:
					i++
				case nu[i] > nv[j]:
					j++
				default:
					d.add(u, v, nu[i])
					i++
					j++
				}
			}
		}
	}
	return d
}
