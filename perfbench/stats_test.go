package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{0, 50, false, 0},
		{19, 50, false, 0},
		{20, 50, true, 10},
		{99, 90, false, 0},
		{100, 90, true, 90},
		{200, 90, true, 180},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok = %v", c.p, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of %d samples = %g, want %g", c.p, c.n, got, c.want)
		}
	}
	if needFor(50) != 20 || needFor(90) != 100 {
		t.Errorf("needFor(50), needFor(90) = %d, %d, want 20, 100", needFor(50), needFor(90))
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 80 * ms, End: 120 * ms}, // outlives the parent
		{ID: 5, Parent: 2, Name: "a.child", Start: 15 * ms, End: 20 * ms},
		{ID: 6, Name: "other", Start: 0, End: 5 * ms},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [80,100) of the parent: 70 of its 100 ms.
	for id, want := range map[uint64]time.Duration{1: 30 * ms, 2: 25 * ms, 3: 30 * ms, 4: 40 * ms, 5: 5 * ms, 6: 5 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestSetDigestCatchesWrongTriangles(t *testing.T) {
	base := tris{1, 2, 3, 1, 2, 4, 2, 3, 4, 5, 6, 7}
	want, _ := base.digests()
	same := tris{7, 5, 6, 2, 4, 3, 1, 2, 3, 4, 2, 1} // other order, other vertex order
	if got, _ := same.digests(); got != want {
		t.Errorf("reordered stream: digest %+v, want %+v", got, want)
	}
	for name, ts := range map[string]tris{
		"dropped":              {1, 2, 3, 1, 2, 4, 2, 3, 4},
		"duplicated":           append(append(tris{}, base...), 2, 3, 4),
		"foreign":              {1, 2, 3, 1, 2, 4, 2, 3, 4, 5, 6, 8},
		"duplicate for a drop": {1, 2, 3, 1, 2, 4, 2, 3, 4, 2, 3, 4},
	} {
		if got, _ := ts.digests(); got == want {
			t.Errorf("%s triangle: digest unchanged", name)
		}
	}
	_, q1 := base.digests()
	_, q2 := same.digests()
	if q1 == q2 {
		t.Error("stream digest ignores emission order")
	}
}

func TestReferenceTriangles(t *testing.T) {
	// K4 on {0,1,2,3} plus a pendant path, a duplicate edge and a self-loop.
	edges := [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {1, 0}, {5, 5}}
	var want tris
	for _, tr := range [][3]uint32{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}} {
		want.add(tr[0], tr[1], tr[2])
	}
	w, _ := want.digests()
	if got := referenceTriangles(edges); got != w {
		t.Errorf("reference lister on K4: %+v, want %+v", got, w)
	}
}

func TestSortedLex(t *testing.T) {
	if !(tris{1, 2, 3, 1, 2, 4, 1, 3, 4}).sortedLex() {
		t.Error("ascending stream reported unsorted")
	}
	if (tris{1, 2, 4, 1, 2, 3}).sortedLex() || (tris{1, 2, 3, 1, 2, 3}).sortedLex() {
		t.Error("descending or repeated stream reported sorted")
	}
}

func TestEdgeModelDeltaKeepsEdgeCount(t *testing.T) {
	m := newEdgeModel([][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {0, 9}}, 30, 7)
	before := len(m.edges)
	present := map[uint64]bool{}
	for _, k := range m.edges {
		present[k] = true
	}
	d := m.delta()
	if len(d.Add) != deltaHalf || len(d.Remove) != deltaHalf || len(m.edges) != before {
		t.Fatalf("delta of %d adds and %d removes left %d edges, want %d each and %d", len(d.Add), len(d.Remove), len(m.edges), deltaHalf, before)
	}
	for _, e := range d.Remove {
		if !present[normEdge(e[0], e[1])] {
			t.Errorf("removed edge %v was not present", e)
		}
	}
	for _, e := range d.Add {
		if present[normEdge(e[0], e[1])] || e[0] == e[1] {
			t.Errorf("added edge %v was present or a self-loop", e)
		}
	}
}

func TestParseTriple(t *testing.T) {
	if got, ok := parseTriple([]byte("1,22,4294967295]}")); !ok || got != [3]uint32{1, 22, 4294967295} {
		t.Errorf("parseTriple = %v, %v", got, ok)
	}
	for _, bad := range []string{"1,2]}", "1,2,3,4]}", "1,2,3]", "1,,3]}", "1,2,4294967296]}", "1,2,3]}x", "a,2,3]}", ""} {
		if _, ok := parseTriple([]byte(bad)); ok {
			t.Errorf("parseTriple(%q) accepted", bad)
		}
	}
}
