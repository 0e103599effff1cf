package main

import (
	"repro"
)

// edgeModel is the client's copy of a graph's edge set, from which it
// draws deltas that keep E level: 8 removals of present edges and 8
// additions of absent ones, all distinct.
type edgeModel struct {
	n     uint32
	edges []uint64       // packed normalized edges
	pos   map[uint64]int // edge -> index in edges
	rng   uint64
}

const deltaHalf = 8

func newEdgeModel(edges [][2]uint32, n int, seed uint64) *edgeModel {
	m := &edgeModel{n: uint32(n), pos: make(map[uint64]int, len(edges)), rng: seed}
	for _, e := range edges {
		if e[0] != e[1] {
			m.insert(normEdge(e[0], e[1]))
		}
	}
	return m
}

func (m *edgeModel) insert(k uint64) {
	if _, ok := m.pos[k]; !ok {
		m.pos[k] = len(m.edges)
		m.edges = append(m.edges, k)
	}
}

func (m *edgeModel) remove(k uint64) {
	i := m.pos[k]
	last := m.edges[len(m.edges)-1]
	m.edges[i], m.pos[last] = last, i
	m.edges = m.edges[:len(m.edges)-1]
	delete(m.pos, k)
}

func (m *edgeModel) next() uint64 {
	m.rng += 0x9e3779b97f4a7c15
	return mix64(m.rng)
}

func unpack(k uint64) repro.Edge { return repro.Edge{uint32(k >> 32), uint32(k)} }

// delta draws the next delta and applies it to the model.
func (m *edgeModel) delta() repro.Delta {
	var d repro.Delta
	for len(d.Remove) < deltaHalf {
		k := m.edges[m.next()%uint64(len(m.edges))]
		m.remove(k)
		d.Remove = append(d.Remove, unpack(k))
	}
	for len(d.Add) < deltaHalf {
		u, v := uint32(m.next()%uint64(m.n)), uint32(m.next()%uint64(m.n))
		k := normEdge(u, v)
		if _, ok := m.pos[k]; ok || u == v || removedNow(d, k) {
			continue
		}
		m.insert(k)
		d.Add = append(d.Add, unpack(k))
	}
	return d
}

// removedNow keeps an addition from naming an edge this delta removes,
// which would make the pair a no-op instead of two effective changes.
func removedNow(d repro.Delta, k uint64) bool {
	for _, e := range d.Remove {
		if normEdge(e[0], e[1]) == k {
			return true
		}
	}
	return false
}

func (m *edgeModel) list() [][2]uint32 {
	out := make([][2]uint32, len(m.edges))
	for i, k := range m.edges {
		out[i] = unpack(k)
	}
	return out
}
