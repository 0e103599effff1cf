package trienum

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/extmem"
	"repro/internal/graph"
)

// parallelRun executes one engine run and returns the emission sequence
// (in emission order, not sorted — the ordering is part of the contract),
// the coordinator stats, and the summed worker stats.
func parallelRun(t *testing.T, el graph.EdgeList, cfg extmem.Config, workers int,
	run func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats)) ([]graph.Triple, extmem.Stats, Info) {
	t.Helper()
	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)
	sp.DropCache()
	sp.ResetStats()
	var got []graph.Triple
	info, ws := run(sp, g, Exec{Workers: workers}, func(a, b, c uint32) {
		got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
	})
	sp.Flush()
	total := sp.Stats()
	for _, w := range ws {
		total.Add(w)
	}
	return got, total, info
}

var parallelEngines = []struct {
	name string
	run  func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats)
}{
	{"cacheaware", func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats) {
		info, ws, err := CacheAwareParallel(sp, g, 12345, Options{}, exec, emit)
		if err != nil {
			panic(err)
		}
		return info, ws
	}},
	{"deterministic", func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats) {
		info, ws, err := DeterministicParallel(sp, g, 0, exec, emit)
		if err != nil {
			panic(err)
		}
		return info, ws
	}},
	{"oblivious", func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats) {
		info, ws, err := ObliviousParallel(sp, g, 12345, exec, emit)
		if err != nil {
			panic(err)
		}
		return info, ws
	}},
}

// parallelWorkloads deliberately includes the skewed and high-degree
// generators so the Lemma 1 shard path is exercised, not just the triples.
func parallelWorkloads() map[string]graph.EdgeList {
	hubs := graph.GNM(500, 1200, 3)
	for v := uint32(0); v < 400; v++ {
		hubs.Add(498, v)
		hubs.Add(499, v)
	}
	return map[string]graph.EdgeList{
		"empty":    {},
		"triangle": graph.Clique(3),
		"k20":      graph.Clique(20),
		"gnm":      graph.GNM(150, 1200, 11),
		"powerlaw": graph.PowerLaw(200, 1500, 2.1, 12),
		"planted":  graph.PlantedClique(120, 600, 12, 13),
		"rmat":     graph.RMAT(7, 700, 8),
		"hubs":     hubs,
		"star":     star(40),
	}
}

// TestParallelDeterministicAcrossWorkerCounts is the engine's core
// contract: for Workers ∈ {1, 2, 8} the emission sequence is
// byte-identical and the aggregated block-I/O counts are equal, on every
// workload, for both parallel-capable algorithms.
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	for name, el := range parallelWorkloads() {
		for _, eng := range parallelEngines {
			t.Run(name+"/"+eng.name, func(t *testing.T) {
				base, baseStats, baseInfo := parallelRun(t, el, cfg, 1, eng.run)
				if ok, diag := graph.NewOracle(el).SameSet(base); !ok {
					t.Fatalf("1-worker engine wrong: %s", diag)
				}
				for _, workers := range []int{2, 8} {
					got, stats, info := parallelRun(t, el, cfg, workers, eng.run)
					if len(got) != len(base) {
						t.Fatalf("workers=%d emitted %d triangles, workers=1 emitted %d", workers, len(got), len(base))
					}
					for i := range got {
						if got[i] != base[i] {
							t.Fatalf("workers=%d: emission %d = %v, workers=1 emitted %v (order must match)", workers, i, got[i], base[i])
						}
					}
					if stats.BlockReads != baseStats.BlockReads || stats.BlockWrites != baseStats.BlockWrites {
						t.Errorf("workers=%d: I/Os (r=%d w=%d) differ from workers=1 (r=%d w=%d)",
							workers, stats.BlockReads, stats.BlockWrites, baseStats.BlockReads, baseStats.BlockWrites)
					}
					if stats.WordReads != baseStats.WordReads || stats.WordWrites != baseStats.WordWrites {
						t.Errorf("workers=%d: word counts differ from workers=1", workers)
					}
					if info.Triangles != baseInfo.Triangles || info.Subproblems != baseInfo.Subproblems ||
						info.HighDegVertices != baseInfo.HighDegVertices || info.X != baseInfo.X {
						t.Errorf("workers=%d: Info differs: %+v vs %+v", workers, info, baseInfo)
					}
				}
			})
		}
	}
}

// TestParallelMatchesSequentialTriangleSet: every engine finds exactly
// the in-memory oracle's triangle set, each triangle once, both when run
// sequentially (one worker) and in parallel.
func TestParallelMatchesSequentialTriangleSet(t *testing.T) {
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	for name, el := range parallelWorkloads() {
		t.Run(name, func(t *testing.T) {
			oracle := graph.NewOracle(el)
			for _, eng := range parallelEngines {
				for _, workers := range []int{1, 4} {
					got, _, _ := parallelRun(t, el, cfg, workers, eng.run)
					if ok, diag := oracle.SameSet(got); !ok {
						t.Errorf("%s, workers=%d: %s", eng.name, workers, diag)
					}
				}
			}
		})
	}
}

// TestObliviousParallelMatchesSequentialStream is the oblivious engine's
// strongest oracle: the parallel run's emission sequence is byte-identical
// to the sequential ObliviousCtx with the same seed — not just the same
// set — at every worker count, and the recursion bookkeeping (subproblem,
// base-case, high-degree, and per-level tallies) agrees exactly. This is
// what licenses routing CacheOblivious queries through the engine.
func TestObliviousParallelMatchesSequentialStream(t *testing.T) {
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	for name, el := range parallelWorkloads() {
		t.Run(name, func(t *testing.T) {
			sp := extmem.NewSpace(cfg)
			g := graph.CanonicalizeList(sp, el)
			var seq []graph.Triple
			seqInfo, err := ObliviousCtx(nil, sp, g, 12345, func(a, b, c uint32) {
				seq = append(seq, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, _, info := parallelRun(t, el, cfg, workers, parallelEngines[2].run)
				if len(got) != len(seq) {
					t.Fatalf("workers=%d emitted %d triangles, sequential emitted %d", workers, len(got), len(seq))
				}
				for i := range got {
					if got[i] != seq[i] {
						t.Fatalf("workers=%d: emission %d = %v, sequential emitted %v (order must match)", workers, i, got[i], seq[i])
					}
				}
				if info.Subproblems != seqInfo.Subproblems || info.BaseCases != seqInfo.BaseCases ||
					info.HighDegVertices != seqInfo.HighDegVertices || info.Triangles != seqInfo.Triangles {
					t.Errorf("workers=%d: Info differs from sequential: %+v vs %+v", workers, info, seqInfo)
				}
				if len(info.Recursion) != len(seqInfo.Recursion) {
					t.Fatalf("workers=%d: %d recursion levels, sequential has %d", workers, len(info.Recursion), len(seqInfo.Recursion))
				}
				for i, lv := range info.Recursion {
					if lv != seqInfo.Recursion[i] {
						t.Errorf("workers=%d: recursion level %d = %+v, sequential %+v", workers, i, lv, seqInfo.Recursion[i])
					}
				}
			}
		})
	}
}

// TestParallelHighDegreeExactlyOnce drives a graph whose triangles have
// two and three high-degree corners, the case the w < vr dedup filter
// must get right against the frozen edge set.
func TestParallelHighDegreeExactlyOnce(t *testing.T) {
	// Three mutually adjacent hubs over a shared neighborhood: triangles
	// {hub_i, hub_j, x} have two high-degree corners, {hub1, hub2, hub3}
	// has three.
	var el graph.EdgeList
	hub := []uint32{200, 201, 202}
	el.Add(hub[0], hub[1])
	el.Add(hub[0], hub[2])
	el.Add(hub[1], hub[2])
	for v := uint32(0); v < 150; v++ {
		for _, h := range hub {
			el.Add(h, v)
		}
	}
	// A second shared neighborhood keeps hub degrees (302) above the
	// sqrt(E·M) ≈ 240 threshold at M=64.
	for v := uint32(0); v < 150; v++ {
		el.Add(hub[0], 300+v)
		el.Add(hub[1], 300+v)
		el.Add(hub[2], 300+v)
	}
	cfg := extmem.Config{M: 1 << 6, B: 1 << 3}
	for _, eng := range parallelEngines {
		got, _, info := parallelRun(t, el, cfg, 4, eng.run)
		if info.HighDegVertices < 3 {
			t.Fatalf("%s: hubs not classified high-degree (got %d)", eng.name, info.HighDegVertices)
		}
		if ok, diag := graph.NewOracle(el).SameSet(got); !ok {
			t.Errorf("%s: %s", eng.name, diag)
		}
	}
}

// TestParallelListerTwoPassAgreement: ListTriangles runs its Lister twice
// (count, then fill); the parallel engine must give it the same stream
// both times, and the materialized list must pass the external checker.
func TestParallelListerTwoPassAgreement(t *testing.T) {
	el := graph.PlantedClique(100, 700, 12, 5)
	sp := extmem.NewSpace(extmem.Config{M: 1 << 10, B: 1 << 5})
	g := graph.CanonicalizeList(sp, el)
	list, info := ListTriangles(sp, g, 77, ParallelLister(Exec{Workers: 4}))
	if ListLen(list) != int64(info.Triangles) {
		t.Fatalf("materialized %d triangles, info says %d", ListLen(list), info.Triangles)
	}
	if info.Triangles != graph.NewOracle(el).Count() {
		t.Fatalf("wrong count %d", info.Triangles)
	}
	if err := VerifyEnumeration(sp, g, list); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEmitPanicDoesNotLeakWorkers: a panic in the caller's emit
// must propagate after unwinding the pool — workers and dispatcher exit
// instead of blocking forever on full streams.
func TestParallelEmitPanicDoesNotLeakWorkers(t *testing.T) {
	el := graph.Clique(40) // 9880 triangles: workers are mid-stream when emit dies
	sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
	g := graph.CanonicalizeList(sp, el)
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("emit panic did not propagate")
			}
		}()
		n := 0
		CacheAwareParallel(sp, g, 1, Options{}, Exec{Workers: 4}, func(_, _, _ uint32) {
			n++
			if n == 10 {
				panic("emit failure")
			}
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before the panic, %d after", before, runtime.NumGoroutine())
}

// TestParallelListerAbsorbsWorkerIOs: invoking the ParallelLister must
// leave the full run cost — coordinator plus workers — on the Space, so
// listing experiments that measure through sp.Stats() see the same
// totals as Enumerate reports.
func TestParallelListerAbsorbsWorkerIOs(t *testing.T) {
	el := graph.GNM(200, 1600, 4)
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}

	ref := extmem.NewSpace(cfg)
	gr := graph.CanonicalizeList(ref, el)
	ref.DropCache()
	ref.ResetStats()
	var n uint64
	_, ws, _ := CacheAwareParallel(ref, gr, 9, Options{}, Exec{Workers: 2}, graph.Counter(&n))
	want := ref.Stats()
	for _, w := range ws {
		want.Add(w)
	}

	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)
	sp.DropCache()
	sp.ResetStats()
	ParallelLister(Exec{Workers: 2})(sp, g, 9, func(_, _, _ uint32) {})
	got := sp.Stats()
	if got.BlockReads != want.BlockReads || got.BlockWrites != want.BlockWrites {
		t.Errorf("lister left (r=%d w=%d) on the Space, full run cost is (r=%d w=%d)",
			got.BlockReads, got.BlockWrites, want.BlockReads, want.BlockWrites)
	}
}

// TestParallelWorkerStatsBreakdown: worker stats must be non-trivial and
// sum (with the coordinator's) to the same totals at every worker count —
// the property Result.WorkerStats exposes publicly.
func TestParallelWorkerStatsBreakdown(t *testing.T) {
	el := graph.GNM(300, 3000, 9)
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)
	var n uint64
	_, ws, _ := CacheAwareParallel(sp, g, 4, Options{}, Exec{Workers: 3}, graph.Counter(&n))
	if len(ws) == 0 {
		t.Fatal("no worker stats returned")
	}
	var reads uint64
	for _, w := range ws {
		reads += w.BlockReads
	}
	if reads == 0 {
		t.Error("workers report zero block reads on an out-of-core input")
	}
}
