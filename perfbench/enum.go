package main

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// simReads is the size of the fixed, seed-determined set of simulated
// reads a run makes; read_ios and read_sim_ref_p50 come from it.
const simReads = 40

// simEvery is the number of native enum reads per simulated one.
const simEvery = 3

// enumAlg is the algorithm of the i-th enum read: CacheAware and
// Deterministic 3:1, so p50 falls inside CacheAware and p90 inside
// Deterministic. CacheOblivious stays out of the mix: one native query
// costs seconds and would swamp every percentile.
func enumAlg(i int) repro.Algorithm {
	if i%4 == 3 {
		return repro.Deterministic
	}
	return repro.CacheAware
}

// build is one timed set-up step shared by the workloads: Build a
// memory-backed handle from the generated edges.
func build(r *runner, edges [][2]uint32, m, b int, op uint64) (*repro.Graph, error) {
	sp := r.tr.start("graph.build", 0, op)
	defer sp.end()
	return repro.Build(repro.FromEdges(edges), repro.Options{MemoryWords: m, BlockWords: b, Workers: workers})
}

// runEnum stresses the engine on a static skewed graph in the paper's
// regime (E/M ≈ 16): one closed-loop client issues native triangle
// queries, each with a fresh seed.
func runEnum(r *runner) (*phase, error) {
	p := newPhase()
	ctx := context.Background()
	g, err := setUp(p, func(int) (*repro.Graph, error) {
		return build(r, r.edges, r.w.m, r.w.b, r.tr.newOp())
	}, func(g *repro.Graph) { g.Close() })
	if err != nil {
		return nil, err
	}
	defer g.Close()
	p.layer["graph.canon_ios"] = float64(g.CanonIOs())
	want := referenceTriangles(r.edges)

	// The loop interleaves the simulated set with the native reads, one
	// simulated read after every simEvery native ones, so that both
	// sample the same stretch of time. Simulated read j repeats native
	// read j's (algorithm, seed) and must match its stream exactly.
	var buf tris
	nativeSeq := make([]seqDigest, simReads)
	var clock refClock
	var read, ttfb, sim timings
	var ios, words, lease, skew []float64
	var emits int64
	need := needFor(90)
	settle()
	a := sampleProc()
	rss := sampleRSS()
	t0 := time.Now()
	for i := 0; r.keepGoing(t0, read.n() < need || sim.n() < simReads); i++ {
		buf = buf[:0]
		alg := enumAlg(i)
		q := repro.Query{Algorithm: alg, Seed: r.readSeed(i), Mode: repro.ModeNative, Workers: workers}
		ref := clock.mark()
		op := r.tr.newOp()
		sp := r.tr.start("trienum."+alg.String(), 0, op)
		firstSp := r.tr.start("trienum.first_emit", sp.id(), op)
		var first lap
		t := now()
		_, err := g.TrianglesFunc(ctx, q, func(a, b, c uint32) {
			if len(buf) == 0 {
				first = t.lap()
				firstSp.end()
			}
			buf.add(a, b, c)
		})
		total := t.lap()
		sp.end()
		set, seq := buf.digests()
		if i < simReads {
			nativeSeq[i] = seq
		}
		if err == nil {
			err = checkSet("enum read", i, set, want)
		}
		if p.op(err) {
			read.add(total, ref)
			ttfb.add(first, ref)
			emits += int64(len(buf) / 3)
		}

		j := sim.n()
		if i%simEvery != simEvery-1 || j >= simReads {
			continue
		}
		buf = buf[:0]
		q = repro.Query{Algorithm: enumAlg(j), Seed: r.readSeed(j), Mode: repro.ModeSimulated, Workers: workers}
		ref = clock.mark()
		t = now()
		res, err := g.TrianglesFunc(ctx, q, buf.add)
		sim.add(t.lap(), ref)
		set, seq = buf.digests()
		if err == nil {
			err = checkSet("enum simulated read", j, set, want)
		}
		if err == nil && seq != nativeSeq[j] {
			err = fmt.Errorf("enum read %d: simulated stream differs from the native stream of the same query", j)
		}
		if !p.op(err) {
			continue
		}
		ios = append(ios, float64(res.Stats.IOs()))
		words = append(words, float64(res.Stats.WordReads+res.Stats.WordWrites))
		lease = append(lease, float64(res.Stats.PeakLeaseWords))
		skew = append(skew, workerSkew(res.WorkerStats))
	}
	rssMB := rss.finish()
	procLayer(p.layer, a, sampleProc(), read.n(), workers)
	if err := p.readMetrics(read, ttfb, &clock, rssMB, emits); err != nil {
		return nil, err
	}
	if err := p.simMetrics(sim, &clock); err != nil {
		return nil, err
	}
	if len(ios) < simReads {
		return nil, fmt.Errorf("enum: %d of %d simulated reads succeeded", len(ios), simReads)
	}
	p.e2e["read_ios"] = mean(ios)
	p.layer["extmem.block_ios"] = mean(ios)
	p.layer["extmem.word_ops"] = mean(words)
	p.layer["extmem.peak_lease_words"] = mean(lease)
	p.layer["trienum.worker_io_skew"] = mean(skew)
	if r.tr.on.Load() {
		spans := r.tr.spans()
		p.layer["graph.build_ms"] = median(byName(spans, "graph.build"))
		p.layer["trienum.deterministic_ms"] = median(byName(spans, "trienum.deterministic"))
		if err := inprocProbe(r, g, p, want); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func checkSet(what string, i int, got, want setDigest) error {
	if got != want {
		return fmt.Errorf("%s %d: %d triangles with digest %x, want %d with %x", what, i, got.N, got.Sum, want.N, want.Sum)
	}
	return nil
}

// workerSkew is the largest per-worker I/O count over the mean.
func workerSkew(ws []repro.IOStats) float64 {
	var sum, mx float64
	for _, w := range ws {
		v := float64(w.IOs())
		sum += v
		mx = max(mx, v)
	}
	if sum == 0 {
		return 0
	}
	return mx / (sum / float64(len(ws)))
}

// inprocProbeReps is the number of plain/ordered query pairs the
// in-process probe makes.
const inprocProbeReps = 5

// inprocProbe runs in-process native CacheAware queries on g, plain and
// Ordered with the same seed, for the trienum and repro layers: the
// kernel's time, its time to first emission, its decomposition, and the
// extra time ordered delivery costs. want is g's triangle set.
func inprocProbe(r *runner, g *repro.Graph, p *phase, want setDigest) error {
	ctx := context.Background()
	var extra []float64
	var buf tris
	for i := 0; i < inprocProbeReps; i++ {
		var ms [2]float64
		for k, ordered := range []bool{false, true} {
			buf = buf[:0]
			op := r.tr.newOp()
			name := "trienum.cacheaware"
			if ordered {
				name = "repro.ordered"
			}
			sp := r.tr.start(name, 0, op)
			var first *live
			if !ordered {
				first = r.tr.start("trienum.first_emit", sp.id(), op)
			}
			t := time.Now()
			res, err := g.TrianglesFunc(ctx, repro.Query{Seed: r.readSeed(1000 + i), Mode: repro.ModeNative, Ordered: ordered, Workers: workers},
				func(a, b, c uint32) {
					if len(buf) == 0 {
						first.end()
					}
					buf.add(a, b, c)
				})
			ms[k] = float64(time.Since(t)) / 1e6
			sp.end()
			if err != nil {
				return err
			}
			if set, _ := buf.digests(); set != want {
				return fmt.Errorf("in-process probe: triangle set differs from the reference")
			}
			if ordered && !buf.sortedLex() {
				return fmt.Errorf("in-process probe: ordered stream is not sorted")
			}
			p.layer["trienum.subproblems"] = float64(res.Subproblems)
			p.layer["trienum.x"] = float64(res.X)
			p.layer["trienum.colors"] = float64(res.Colors)
			p.layer["trienum.high_deg_vertices"] = float64(res.HighDegVertices)
		}
		extra = append(extra, ms[1]-ms[0])
	}
	spans := r.tr.spans()
	p.layer["repro.ordered_extra_ms"] = median(extra)
	p.layer["trienum.cacheaware_ms"] = median(byName(spans, "trienum.cacheaware"))
	p.layer["trienum.first_emit_ms"] = median(byName(spans, "trienum.first_emit"))
	if _, ok := p.layer["trienum.worker_io_skew"]; !ok {
		res, err := g.TrianglesFunc(ctx, repro.Query{Seed: r.readSeed(2000), Mode: repro.ModeSimulated, Workers: workers}, func(a, b, c uint32) {})
		if err != nil {
			return err
		}
		p.layer["trienum.worker_io_skew"] = workerSkew(res.WorkerStats)
	}
	return nil
}
