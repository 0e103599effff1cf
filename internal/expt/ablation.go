package expt

import (
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

// EA1HighDegreeAblation: why step 1 exists. On hub-heavy graphs, skipping
// the Lemma 1 pass for vertices of degree > sqrt(E·M) blows up the
// partition potential X_ξ (Lemma 3's proof needs deg <= sqrt(E·M)) and
// with it the I/O cost of step 3; on degree-regular graphs it changes
// nothing. The algorithm stays correct either way — the knob isolates the
// design choice.
func EA1HighDegreeAblation() Table {
	m := Machine{M: 1 << 8, B: 1 << 4}
	t := Table{
		Claim:  "removing deg > sqrt(E·M) vertices first keeps X_ξ <= E·M on skewed graphs",
		Header: []string{"graph", "E", "Vh", "X with", "X without", "X ratio", "IOs with", "IOs without"},
	}
	workloads := []struct {
		name string
		el   graph.EdgeList
	}{
		{"hubs", hubGraph()},
		{"powerlaw", graph.PowerLaw(3000, 9000, 1.9, 7)},
		{"gnm", graph.GNM(2250, 9000, 8)},
	}
	for _, w := range workloads {
		with := Measure(w.el, m, ablationRun(trienum.Options{}), 5)
		without := Measure(w.el, m, ablationRun(trienum.Options{DisableHighDegree: true}), 5)
		ratio := "-"
		if with.Info.X > 0 {
			ratio = f2(float64(without.Info.X) / float64(with.Info.X))
		}
		t.Rows = append(t.Rows, []string{w.name, d64(with.Edges), di(with.Info.HighDegVertices),
			d(with.Info.X), d(without.Info.X), ratio, d(with.IOs), d(without.IOs)})
	}
	t.Notes = append(t.Notes, "both variants emit identical triangle sets (verified in tests); only cost differs")
	return t
}

// ablationRun is the served cache-aware runner with ablation knobs.
func ablationRun(opt trienum.Options) Run {
	return Run{"cacheaware", trienum.EngineLister(func(sp *extmem.Space, g graph.Canonical, seed uint64, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
		return trienum.CacheAwareParallel(sp, g, seed, opt, served, e)
	})}
}

func hubGraph() graph.EdgeList {
	el := graph.GNM(3000, 4000, 3)
	for v := uint32(0); v < 2500; v++ {
		el.Add(2998, v)
		el.Add(2999, v)
	}
	return el
}
