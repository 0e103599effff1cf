package expt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

func TestTableRender(t *testing.T) {
	tb := Table{
		ID:     "T0",
		Title:  "demo",
		Claim:  "x",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== T0: demo", "claim: x", "bbbb", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestMeasureCountsColdIOs(t *testing.T) {
	el := graph.Clique(40)
	m := Machine{M: 1 << 10, B: 1 << 5}
	ms := Measure(el, m, Runner("cacheaware"), 1)
	if ms.Triangles != 40*39*38/6 {
		t.Errorf("triangles %d", ms.Triangles)
	}
	if ms.IOs == 0 {
		t.Error("no I/Os measured for out-of-memory input")
	}
	if ms.Edges != 780 {
		t.Errorf("edges %d", ms.Edges)
	}
}

// TestMeasureCountsWorkerIOs: for each runner on a served engine,
// Measure reports the run's full cost — the coordinator's I/Os plus every
// worker's — not only the coordinator's share.
func TestMeasureCountsWorkerIOs(t *testing.T) {
	el := graph.Clique(64)
	m := Machine{M: 1 << 10, B: 1 << 5}
	engines := map[string]func(sp *extmem.Space, g graph.Canonical, emit graph.Emit) (trienum.Info, []extmem.Stats, error){
		"cacheaware": func(sp *extmem.Space, g graph.Canonical, emit graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.CacheAwareParallel(sp, g, 1, trienum.Options{}, served, emit)
		},
		"oblivious": func(sp *extmem.Space, g graph.Canonical, emit graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.ObliviousParallel(sp, g, 1, served, emit)
		},
		"deterministic": func(sp *extmem.Space, g graph.Canonical, emit graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.DeterministicParallel(sp, g, 0, served, emit)
		},
	}
	for name, run := range engines {
		sp := m.space()
		g := graph.CanonicalizeList(sp, el)
		sp.DropCache()
		sp.ResetStats()
		var n uint64
		_, ws, err := run(sp, g, graph.Counter(&n))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp.Flush()
		want := sp.Stats()
		var workerIOs uint64
		for _, w := range ws {
			want.Add(w)
			workerIOs += w.IOs()
		}
		if workerIOs == 0 {
			t.Fatalf("%s: workers did no I/O; the check below would be vacuous", name)
		}
		if got := Measure(el, m, Runner(name), 1); got.IOs != want.IOs() {
			t.Errorf("%s: Measure reports %d I/Os, coordinator plus workers did %d (workers alone %d)",
				name, got.IOs, want.IOs(), workerIOs)
		}
	}
}

func TestRunnersAllAgree(t *testing.T) {
	el := graph.PlantedClique(60, 150, 8, 2)
	m := Machine{M: 1 << 10, B: 1 << 5}
	want := graph.NewOracle(el).Count()
	for _, r := range Runners() {
		ms := Measure(el, m, r, 3)
		if ms.Triangles != want {
			t.Errorf("%s: %d triangles, want %d", r.Name, ms.Triangles, want)
		}
	}
}

func TestRunnerUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown runner should panic")
		}
	}()
	Runner("bogus")
}

func TestBoundHelpers(t *testing.T) {
	m := Machine{M: 1024, B: 32}
	if OptBound(1024, m) <= 0 || LowerBound(1000, m) <= 0 || HuBound(1024, m) <= 0 {
		t.Error("bounds must be positive")
	}
	// E^1.5 monotone.
	if OptBound(2048, m) <= OptBound(1024, m) {
		t.Error("OptBound not monotone")
	}
	// cliqueWithEdges inverts E = n(n-1)/2 approximately.
	el := cliqueWithEdges(4095)
	if n := len(el.Edges); n < 3800 || n > 4400 {
		t.Errorf("cliqueWithEdges(4095) gave %d edges", n)
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestSmallExperimentsRun exercises the fast experiment drivers end to
// end; the heavyweight sweeps are covered by cmd/ioexp and benchmarks.
func TestSmallExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow")
	}
	tb := E10Sorting()
	if len(tb.Rows) == 0 {
		t.Error("E10 empty")
	}
	tb = E6ColoringBalance()
	if len(tb.Rows) != 4 {
		t.Errorf("E6 rows %d", len(tb.Rows))
	}
	// Lemma 3's conclusion should hold in the rendered numbers: the mean
	// normalized potential is at most 1 for every class.
	for _, row := range tb.Rows {
		var norm float64
		if _, err := fmt.Sscan(row[len(row)-1], &norm); err != nil {
			t.Fatalf("bad cell %q", row[len(row)-1])
		}
		if norm > 1.0 {
			t.Errorf("%s: mean X/(E·M) = %v > 1 violates Lemma 3", row[0], norm)
		}
	}
}
