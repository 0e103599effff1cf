package expt

import (
	"fmt"
	"math"

	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/subgraph"
)

// E1CacheAwareScaling: Theorem 4. I/Os of the cache-aware randomized
// algorithm across an edge-count sweep, normalized by E^1.5/(sqrt(M)·B);
// the normalized column must be flat (a constant), on both the
// triangle-dense lower-bound instance (cliques) and sparse random graphs.
func E1CacheAwareScaling() Table {
	m := Machine{M: 1 << 11, B: 1 << 5}
	t := Table{
		Claim:  "I/Os = O(E^1.5/(sqrt(M)·B)) in expectation",
		Header: []string{"graph", "E", "triangles", "IOs", "IOs/bound"},
	}
	run := Runner("cacheaware")
	for _, e := range []int64{2048, 4096, 8192, 16384, 32768} {
		el := cliqueWithEdges(e)
		ms := Measure(el, m, run, 1)
		t.Rows = append(t.Rows, []string{"clique", d64(ms.Edges), d(ms.Triangles), d(ms.IOs), f3(float64(ms.IOs) / OptBound(ms.Edges, m))})
	}
	for _, e := range []int{4096, 8192, 16384, 32768, 65536} {
		el := graph.GNM(e/4, e, uint64(e))
		ms := Measure(el, m, run, 1)
		t.Rows = append(t.Rows, []string{"gnm", d64(ms.Edges), d(ms.Triangles), d(ms.IOs), f3(float64(ms.IOs) / OptBound(ms.Edges, m))})
	}
	t.Notes = append(t.Notes, "flat IOs/bound across a 16x range of E confirms the E^1.5 exponent")
	return t
}

// E2ObliviousScaling: Theorem 1. Same normalization for the
// cache-oblivious algorithm, plus a machine sweep at fixed E: the same
// algorithm execution pattern (no knowledge of M, B) must track the bound
// as the cache it runs on changes.
func E2ObliviousScaling() Table {
	t := Table{
		Claim:  "I/Os = O(E^1.5/(sqrt(M)·B)) expected, without using M or B",
		Header: []string{"graph", "E", "M", "B", "IOs", "IOs/bound"},
	}
	run := Runner("oblivious")
	m0 := Machine{M: 1 << 11, B: 1 << 5}
	for _, e := range []int64{1024, 2048, 4096, 8192, 16384} {
		el := cliqueWithEdges(e)
		ms := Measure(el, m0, run, 2)
		t.Rows = append(t.Rows, []string{"clique", d64(ms.Edges), di(m0.M), di(m0.B),
			d(ms.IOs), f3(float64(ms.IOs) / OptBound(ms.Edges, m0))})
	}
	// Machine sweep at fixed input: the algorithm is one fixed program.
	el := graph.GNM(4096, 16384, 7)
	for _, m := range []Machine{{1 << 9, 1 << 4}, {1 << 11, 1 << 5}, {1 << 13, 1 << 6}, {1 << 15, 1 << 7}} {
		ms := Measure(el, m, run, 2)
		t.Rows = append(t.Rows, []string{"gnm", d64(ms.Edges), di(m.M), di(m.B),
			d(ms.IOs), f3(float64(ms.IOs) / OptBound(ms.Edges, m))})
	}
	t.Notes = append(t.Notes, "rows with the same graph and varying (M,B) run the identical oblivious execution against different caches")
	return t
}

// E3DeterministicScaling: Theorem 2. Scaling of the derandomized
// algorithm plus its certified invariant: the realized X_ξ of the greedy
// coloring against the e·E·M ceiling the proof needs.
func E3DeterministicScaling() Table {
	m := Machine{M: 1 << 9, B: 1 << 4}
	t := Table{
		Claim:  "worst-case I/Os = O(E^1.5/(sqrt(M)·B)); greedy coloring keeps X_ξ < e·E·M",
		Header: []string{"graph", "E", "colors", "X", "X/(E·M)", "IOs", "IOs/bound"},
	}
	run := Runner("deterministic")
	for _, e := range []int{2048, 4096, 8192, 16384} {
		el := graph.GNM(e/4, e, uint64(e)*3)
		ms := Measure(el, m, run, 0)
		t.Rows = append(t.Rows, []string{"gnm", d64(ms.Edges), di(ms.Info.Colors), d(ms.Info.X),
			f3(float64(ms.Info.X) / (float64(ms.Edges) * float64(m.M))),
			d(ms.IOs), f3(float64(ms.IOs) / OptBound(ms.Edges, m))})
	}
	for _, e := range []int64{2048, 8192} {
		el := cliqueWithEdges(e)
		ms := Measure(el, m, run, 0)
		t.Rows = append(t.Rows, []string{"clique", d64(ms.Edges), di(ms.Info.Colors), d(ms.Info.X),
			f3(float64(ms.Info.X) / (float64(ms.Edges) * float64(m.M))),
			d(ms.IOs), f3(float64(ms.IOs) / OptBound(ms.Edges, m))})
	}
	t.Notes = append(t.Notes, "X/(E·M) < e = 2.718 is invariant (4) at the final level; verified at run time")
	return t
}

// E4OptimalityGap: Theorem 3. On cliques (t = Θ(E^1.5), the worst case),
// the ratio of measured I/Os to the lower bound t/(sqrt(M)·B) + t^(2/3)/B
// must be a bounded constant for the paper's algorithms — and visibly
// diverging for the superlinear baselines.
func E4OptimalityGap() Table {
	m := Machine{M: 1 << 10, B: 1 << 5}
	t := Table{
		Claim:  "enumerating t triangles needs Ω(t/(sqrt(M)·B) + t^(2/3)/B) I/Os; the paper's algorithms are within O(1) of it",
		Header: []string{"n", "E", "t", "LB", "cacheaware", "oblivious", "deterministic", "hutaochung"},
	}
	for _, n := range []int{64, 91, 128, 181} {
		el := graph.Clique(n)
		row := []string{di(n)}
		var lb float64
		first := true
		for _, name := range []string{"cacheaware", "oblivious", "deterministic", "hutaochung"} {
			ms := Measure(el, m, Runner(name), 4)
			if first {
				lb = LowerBound(ms.Triangles, m)
				row = append(row, d64(ms.Edges), d(ms.Triangles), e0(lb))
				first = false
			}
			row = append(row, f2(float64(ms.IOs)/lb))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"columns 5-8 are IOs/LB; flat for the paper's three algorithms, growing like sqrt(E/M) for Hu et al.")
	return t
}

// E5ImprovementFactor: the headline claim — the new bound improves Hu et
// al. by min(sqrt(E/M), sqrt(M)). Measured ratio of Hu et al. I/Os to
// cache-aware I/Os across an E/M sweep, against the predicted factor.
func E5ImprovementFactor() Table {
	m := Machine{M: 1 << 10, B: 1 << 5}
	t := Table{
		Claim:  "I/O improvement = Θ(min(sqrt(E/M), sqrt(M))) — significant whenever E >> M",
		Header: []string{"E", "E/M", "predicted", "hutaochung", "cacheaware", "measured", "measured/predicted"},
	}
	for _, e := range []int64{4096, 8192, 16384, 32768, 65536} {
		el := cliqueWithEdges(e)
		hu := Measure(el, m, Runner("hutaochung"), 5)
		ca := Measure(el, m, Runner("cacheaware"), 5)
		pred := math.Min(math.Sqrt(float64(hu.Edges)/float64(m.M)), math.Sqrt(float64(m.M)))
		meas := float64(hu.IOs) / float64(ca.IOs)
		t.Rows = append(t.Rows, []string{d64(hu.Edges), f1(float64(hu.Edges) / float64(m.M)),
			f2(pred), d(hu.IOs), d(ca.IOs), f2(meas), f2(meas / pred)})
	}
	t.Notes = append(t.Notes, "measured/predicted settling to a constant confirms the min(sqrt(E/M), sqrt(M)) factor")
	return t
}

// E6ColoringBalance: Lemma 3. Sample mean of X_ξ over random 4-wise
// independent colorings with c = sqrt(E/M), against the E·M ceiling, on
// graph classes with very different degree profiles.
func E6ColoringBalance() Table {
	m := Machine{M: 1 << 9, B: 1 << 4}
	t := Table{
		Claim:  "E[X_ξ] <= E·M for 4-wise independent ξ with c = sqrt(E/M) colors",
		Header: []string{"graph", "E", "c", "mean X", "max X", "mean X/(E·M)"},
	}
	workloads := []struct {
		name string
		el   graph.EdgeList
	}{
		{"gnm", graph.GNM(4096, 16384, 61)},
		{"powerlaw", graph.PowerLaw(6000, 16384, 2.1, 62)},
		{"clique", cliqueWithEdges(16384)},
		{"bipartite", graph.BipartiteRandom(2048, 2048, 16384, 63)},
	}
	const samples = 20
	for _, w := range workloads {
		sp := m.space()
		g := graph.CanonicalizeList(sp, w.el)
		// Apply the algorithm's own preprocessing: remove high-degree
		// vertices first, as Lemma 3's bound assumes deg <= sqrt(E·M).
		e := g.Edges.Len()
		c := 1
		for int64(c)*int64(c) < e/int64(m.M) {
			c++
		}
		var sum, max float64
		for s := 0; s < samples; s++ {
			x := colorPotential(sp, g, c, uint64(s)*77+1, m)
			sum += x
			if x > max {
				max = x
			}
		}
		mean := sum / samples
		t.Rows = append(t.Rows, []string{w.name, d64(e), di(c), e0(mean), e0(max),
			f3(mean / (float64(e) * float64(m.M)))})
	}
	t.Notes = append(t.Notes, "mean X/(E·M) <= 1 on every class (high-degree vertices removed per step 1)")
	return t
}

// colorPotential computes X_ξ for one random coloring after removing
// high-degree vertices, mirroring the algorithm's step 1 + Lemma 3 setup.
func colorPotential(sp *extmem.Space, g graph.Canonical, c int, seed uint64, m Machine) float64 {
	th := math.Sqrt(float64(g.Edges.Len()) * float64(m.M))
	col := hashing.NewColoring(hashing.NewRand(seed), c)
	counts := map[uint64]int64{}
	n := g.Edges.Len()
	for i := int64(0); i < n; i++ {
		e := g.Edges.Read(i)
		u, v := graph.U(e), graph.V(e)
		if float64(g.Degrees.Read(int64(u))) > th || float64(g.Degrees.Read(int64(v))) > th {
			continue
		}
		key := uint64(col.Color(u))*uint64(c) + uint64(col.Color(v))
		counts[key]++
	}
	var x float64
	for _, k := range counts {
		x += float64(k) * float64(k-1) / 2
	}
	return x
}

// E7MemorySweep: fixed input, varying M. Shows each algorithm's memory
// sensitivity and the crossover the introduction mentions: nested-loop
// joins are fine when the edge set almost fits in memory, and hopeless
// when it does not.
func E7MemorySweep() Table {
	t := Table{
		Claim:  "pipelined nested loop is adequate only when E ~ M; the gap to the optimal algorithms widens as E/M grows",
		Header: []string{"M", "E/M", "cacheaware", "oblivious", "hutaochung", "nestedloop", "sortmerge", "edgeiterator"},
	}
	el := graph.GNM(4096, 16384, 71)
	for _, mWords := range []int{1 << 8, 1 << 10, 1 << 12, 1 << 14} {
		m := Machine{M: mWords, B: 1 << 4}
		row := []string{di(mWords), f1(16384.0 / float64(mWords))}
		for _, name := range []string{"cacheaware", "oblivious", "hutaochung", "nestedloop", "sortmerge", "edgeiterator"} {
			ms := Measure(el, m, Runner(name), 7)
			row = append(row, d(ms.IOs))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// E8Comparison: the state-of-the-art table of Section 1.1, measured: all
// algorithms on all workload classes.
func E8Comparison() Table {
	m := Machine{M: 1 << 10, B: 1 << 5}
	t := Table{
		Claim:  "the paper's algorithms dominate every prior bound across graph classes",
		Header: []string{"graph", "E", "t", "cacheaware", "oblivious", "determ", "hutaochung", "sortmerge", "edgeiter", "nestedloop"},
	}
	workloads := []struct {
		name string
		el   graph.EdgeList
	}{
		{"clique", cliqueWithEdges(8192)},
		{"gnm", graph.GNM(2048, 8192, 81)},
		{"powerlaw", graph.PowerLaw(3000, 8192, 2.1, 82)},
		{"sells", graph.Sells(400, 120, 120, 6, 0.15, 83)},
		{"bipartite", graph.BipartiteRandom(1024, 1024, 8192, 84)},
	}
	for _, w := range workloads {
		row := []string{w.name}
		first := true
		for _, name := range []string{"cacheaware", "oblivious", "deterministic", "hutaochung", "sortmerge", "edgeiterator", "nestedloop"} {
			ms := Measure(w.el, m, Runner(name), 8)
			if first {
				row = append(row, d64(ms.Edges), d(ms.Triangles))
				first = false
			}
			row = append(row, d(ms.IOs))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// E9KClique: Section 6 extension. 4-clique enumeration I/Os against the
// predicted O(E²/(M·B)) (the k=4 instance of E^(k/2)/(M^(k/2−1)·B)).
func E9KClique() Table {
	m := Machine{M: 1 << 10, B: 1 << 5}
	t := Table{
		Claim:  "O(E^(k/2)/(M^(k/2-1)·B)) expected I/Os; for k=4 that is E²/(M·B)",
		Header: []string{"graph", "E", "4-cliques", "IOs", "IOs/bound", "maxSub/E[k²M]"},
	}
	workloads := []struct {
		name string
		el   graph.EdgeList
	}{
		{"clique", graph.Clique(64)},
		{"clique", graph.Clique(91)},
		{"planted", graph.PlantedClique(2000, 6000, 24, 91)},
		{"gnm", graph.GNM(1024, 8192, 92)},
	}
	for _, w := range workloads {
		sp := m.space()
		g := graph.CanonicalizeList(sp, w.el)
		sp.DropCache()
		sp.ResetStats()
		info, err := subgraph.KClique(nil, sp, g, 4, 9, func([]uint32) {})
		if err != nil {
			panic(err)
		}
		sp.Flush()
		ios := sp.Stats().IOs()
		e := float64(g.Edges.Len())
		bound := e * e / (float64(m.M) * float64(m.B))
		t.Rows = append(t.Rows, []string{w.name, d64(g.Edges.Len()), d(info.Cliques), d(ios),
			f3(float64(ios) / bound),
			f2(float64(info.MaxSubproblem) / (16 * float64(m.M)))})
	}
	return t
}

// E10Sorting: the sort(E) substrate. Optimal cache-aware multiway
// mergesort, optimal cache-oblivious funnelsort, and log2-pass binary
// mergesort, against the sort(n) bound.
func E10Sorting() Table {
	m := Machine{M: 1 << 10, B: 1 << 5}
	t := Table{
		Claim:  "sort(n) = Θ((n/B)·log_{M/B}(n/B)) I/Os; funnelsort achieves it cache-obliviously",
		Header: []string{"n", "bound", "multiway", "funnel", "binary"},
	}
	for _, n := range []int64{1 << 13, 1 << 15, 1 << 17} {
		row := []string{d64(n)}
		bound := float64(n) / float64(m.B) * math.Log(float64(n)/float64(m.B)) / math.Log(float64(m.M)/float64(m.B))
		row = append(row, e0(bound))
		for _, sorter := range []graph.SortFunc{emsort.SortRecords, emsort.FunnelSortRecords, emsort.ObliviousSortRecords} {
			sp := m.space()
			ext := sp.Alloc(n)
			rng := hashing.NewRand(uint64(n))
			for i := int64(0); i < n; i++ {
				ext.Write(i, rng.Next())
			}
			sp.DropCache()
			sp.ResetStats()
			sorter(ext, 1, emsort.Identity)
			sp.Flush()
			row = append(row, d(sp.Stats().IOs()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Experiment is one entry of the registry: the table's id and title,
// readable without measuring anything, and the function that measures
// its rows.
type Experiment struct {
	ID    string
	Title string
	Run   func() Table
}

// Table runs the experiment and returns its table, stamped with the
// registry's id and title.
func (e Experiment) Table() Table {
	t := e.Run()
	t.ID, t.Title = e.ID, e.Title
	return t
}

// Experiments is the registry of every experiment, in EXPERIMENTS.md
// order; cmd/ioexp lists and runs it.
var Experiments = []Experiment{
	{"E1", "cache-aware randomized scaling (Theorem 4)", E1CacheAwareScaling},
	{"E2", "cache-oblivious randomized scaling (Theorem 1)", E2ObliviousScaling},
	{"E3", "deterministic cache-aware scaling (Theorem 2)", E3DeterministicScaling},
	{"E4", "optimality against the Theorem 3 lower bound", E4OptimalityGap},
	{"E5", "improvement factor over Hu–Tao–Chung (SIGMOD 2013)", E5ImprovementFactor},
	{"E6", "random coloring balance (Lemma 3)", E6ColoringBalance},
	{"E7", "memory sensitivity at fixed E (introduction discussion)", E7MemorySweep},
	{"E8", "end-to-end comparison across workloads (Section 1.1)", E8Comparison},
	{"E9", "k-clique extension, k=4 (Section 6)", E9KClique},
	{"E10", "external sorting substrate", E10Sorting},
	{"E11", "recursion concentration (Lemmas 4 and 5)", E11RecursionConcentration},
	{"E12", "enumeration vs listing (Section 1)", E12ListingVsEnumeration},
	{"EA1", "ablation: step 1 (high-degree vertices via Lemma 1)", EA1HighDegreeAblation},
}

// ByID returns the experiment with the given id (e.g. "E4").
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q", id)
}
