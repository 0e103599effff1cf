// Package expt is the experiment harness reproducing the paper's
// evaluation. PODS 2014 is a theory paper: its "results" are Theorems 1–4
// and Lemma 3, not empirical tables, so each experiment here regenerates
// the measured quantity a theorem bounds and reports it against the
// predicted shape (constant ratios, improvement factors, crossovers).
// EXPERIMENTS.md records the outputs; cmd/ioexp and bench_test.go rerun
// them.
package expt

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/baseline"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%*s", widths[i], cell))
		}
		fmt.Fprintf(w, "   %s\n", sb.String())
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Machine is a simulated machine description.
type Machine struct{ M, B int }

func (m Machine) space() *extmem.Space {
	return extmem.NewSpace(extmem.Config{M: m.M, B: m.B, AllowShortCache: m.M < m.B*m.B})
}

// Run names an algorithm runner over canonical graphs.
type Run struct {
	Name string
	Fn   trienum.Lister
}

// served is how the experiments run the paper's three algorithms: on the
// engines that serve queries, with one worker. The engines' streams and
// I/O totals are the same at every worker count, so the worker count
// changes only how many goroutines a measurement uses.
var served = trienum.Exec{Workers: 1}

// Runners returns every algorithm under measurement. The paper's
// algorithms absorb their workers' I/Os into the measured Space, so
// sp.Stats() is each run's full cost.
func Runners() []Run {
	return []Run{
		{"cacheaware", trienum.ParallelLister(served)},
		{"oblivious", trienum.EngineLister(func(sp *extmem.Space, g graph.Canonical, seed uint64, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.ObliviousParallel(sp, g, seed, served, e)
		})},
		{"deterministic", trienum.EngineLister(func(sp *extmem.Space, g graph.Canonical, _ uint64, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.DeterministicParallel(sp, g, 0, served, e)
		})},
		{"hutaochung", func(sp *extmem.Space, g graph.Canonical, _ uint64, e graph.Emit) trienum.Info {
			return trienum.HuTaoChung(sp, g, e)
		}},
		{"sortmerge", func(sp *extmem.Space, g graph.Canonical, _ uint64, e graph.Emit) trienum.Info {
			return trienum.Dementiev(sp, g, e)
		}},
		{"edgeiterator", func(sp *extmem.Space, g graph.Canonical, _ uint64, e graph.Emit) trienum.Info {
			return baseline.EdgeIterator(sp, g, e)
		}},
		{"nestedloop", func(sp *extmem.Space, g graph.Canonical, _ uint64, e graph.Emit) trienum.Info {
			return baseline.BlockNestedLoop(sp, g, e)
		}},
	}
}

// Runner returns the named runner.
func Runner(name string) Run {
	for _, r := range Runners() {
		if r.Name == name {
			return r
		}
	}
	panic("expt: unknown runner " + name)
}

// Measurement is one algorithm execution's observables.
type Measurement struct {
	IOs       uint64
	Triangles uint64
	Info      trienum.Info
	Edges     int64
}

// Measure canonicalizes el on a fresh machine, drops the cache, runs r
// cold, and returns the measurement (canonicalization excluded, matching
// the paper's assumption of canonical input).
func Measure(el graph.EdgeList, m Machine, r Run, seed uint64) Measurement {
	sp := m.space()
	g := graph.CanonicalizeList(sp, el)
	sp.DropCache()
	sp.ResetStats()
	var n uint64
	info := r.Fn(sp, g, seed, graph.Counter(&n))
	sp.Flush()
	return Measurement{IOs: sp.Stats().IOs(), Triangles: n, Info: info, Edges: g.Edges.Len()}
}

// theoretical bound helpers

// OptBound is the paper's upper-bound form E^1.5/(sqrt(M)·B).
func OptBound(e int64, m Machine) float64 {
	return math.Pow(float64(e), 1.5) / (math.Sqrt(float64(m.M)) * float64(m.B))
}

// LowerBound is Theorem 3's Ω(t/(sqrt(M)·B) + t^(2/3)/B).
func LowerBound(t uint64, m Machine) float64 {
	tf := float64(t)
	return tf/(math.Sqrt(float64(m.M))*float64(m.B)) + math.Pow(tf, 2.0/3)/float64(m.B)
}

// HuBound is O(E²/(M·B)), the strongest prior upper bound.
func HuBound(e int64, m Machine) float64 {
	ef := float64(e)
	return ef * ef / (float64(m.M) * float64(m.B))
}

// cliqueWithEdges returns K_n with roughly e edges.
func cliqueWithEdges(e int64) graph.EdgeList {
	n := int(math.Round((1 + math.Sqrt(1+8*float64(e))) / 2))
	return graph.Clique(n)
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func d(x uint64) string   { return fmt.Sprintf("%d", x) }
func di(x int) string     { return fmt.Sprintf("%d", x) }
func d64(x int64) string  { return fmt.Sprintf("%d", x) }
func e0(x float64) string { return fmt.Sprintf("%.0f", x) }
