package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

const (
	clusterShards = 2
	clusterColors = 4
	// readsPerWrite is the number of gathered reads between two routed
	// updates.
	readsPerWrite = 4
)

// shardCluster is S in-process shard daemons over file-backed
// sub-images and the coordinator handle dialled to them.
type shardCluster struct {
	dir  string
	srvs []*serve.Server
	hss  []*httptest.Server
	cl   *repro.Cluster
	tt   *tagTransport
}

func (c *shardCluster) close() {
	if c.cl != nil {
		c.cl.Close()
	}
	c.tt.base.(*http.Transport).CloseIdleConnections()
	for i := range c.hss {
		c.hss[i].Close()
		c.srvs[i].Close()
	}
	os.RemoveAll(c.dir)
}

// startCluster is the cluster's set-up: Build, Partition into
// file-backed sub-images, Open each at Workers = 1 behind its own shard
// daemon, and dial the coordinator.
func startCluster(r *runner, rep int) (*shardCluster, error) {
	ctx := context.Background()
	op := r.tr.newOp()
	c := &shardCluster{dir: filepath.Join(r.tmp, fmt.Sprintf("cluster-%d", rep)),
		tt: &tagTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
	g, err := build(r, r.edges, r.w.m, r.w.b, op)
	if err != nil {
		return nil, err
	}
	sp := r.tr.start("cluster.partition", 0, op)
	pr, err := repro.Partition(ctx, g, repro.PartitionOptions{Dir: c.dir, Shards: clusterShards, Colors: clusterColors})
	sp.end()
	g.Close()
	if err != nil {
		return nil, err
	}
	man, err := cluster.Load(pr.ManifestPath)
	if err != nil {
		return nil, err
	}
	for i, sh := range pr.Shards {
		sp := r.tr.start("graph.open", 0, op)
		sg, _, err := repro.Open(sh.Image, repro.Options{MemoryWords: r.w.m, BlockWords: r.w.b, Workers: 1})
		sp.end()
		if err != nil {
			c.close()
			return nil, err
		}
		sp = r.tr.start("serve.start", 0, op)
		srv := serve.New(serve.Config{})
		if err := srv.ServeShard(man, i, sg); err != nil {
			sg.Close()
			c.close()
			return nil, err
		}
		c.srvs = append(c.srvs, srv)
		c.hss = append(c.hss, httptest.NewServer(r.tr.middleware("cluster.shard.", srv.Handler())))
		sp.end()
	}
	urls := make([]string, len(c.hss))
	for i, hs := range c.hss {
		urls[i] = hs.URL
	}
	sp = r.tr.start("cluster.dial", 0, op)
	c.cl, err = repro.DialCluster(ctx, pr.ManifestPath, urls, repro.DialOptions{Client: &http.Client{Transport: c.tt}})
	sp.end()
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// runCluster runs scatter–gather over S in-process shard daemons: one
// closed-loop client issues gathered triangle queries in the daemon's
// default simulated mode, with one routed 16-edge update after every
// readsPerWrite reads.
func runCluster(r *runner) (*phase, error) {
	p := newPhase()
	ctx := context.Background()
	c, err := setUp(p, func(rep int) (*shardCluster, error) { return startCluster(r, rep) }, (*shardCluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()

	model := newEdgeModel(r.edges, r.w.n, r.seed)
	type gathered struct {
		epoch int // routed updates installed before the read
		n     uint64
		seq   seqDigest
	}
	var reads []gathered
	var deltas []repro.Delta
	var buf tris
	var clock refClock
	var read, ttfb timings
	var ios, words, lease, canon, enumIOs, builds []float64
	var writeMS, writeIOs []float64
	var emits int64
	need := needFor(90)
	settle()
	a := sampleProc()
	rss := sampleRSS()
	t0 := time.Now()
	for i := 0; r.keepGoing(t0, read.n() < need); i++ {
		buf = buf[:0]
		ref := clock.mark()
		op := r.tr.newOp()
		sp := r.tr.start("cluster.gather", 0, op)
		c.tt.op.Store(op)
		c.tt.span.Store(sp.id())
		var first lap
		t := now()
		cr, err := c.cl.TrianglesFunc(ctx, repro.Query{Seed: r.readSeed(i), Workers: 1}, func(a, b, c uint32) {
			if len(buf) == 0 {
				first = t.lap()
			}
			buf.add(a, b, c)
		})
		total := t.lap()
		sp.end()
		if err == nil {
			set, seq := buf.digests()
			if cr.Delivered != uint64(set.N) {
				err = fmt.Errorf("cluster read %d: %d emissions, result says %d", i, set.N, cr.Delivered)
			} else {
				reads = append(reads, gathered{len(deltas), cr.Delivered, seq})
			}
		}
		if err != nil {
			p.op(err)
			continue
		}
		read.add(total, ref)
		ttfb.add(first, ref)
		emits += int64(cr.Delivered)
		if len(ios) < simReads {
			ios = append(ios, float64(cr.CanonIOs+cr.Stats.IOs()))
			words = append(words, float64(cr.Stats.WordReads+cr.Stats.WordWrites))
			lease = append(lease, float64(cr.Stats.PeakLeaseWords))
			canon = append(canon, float64(cr.CanonIOs))
			enumIOs = append(enumIOs, float64(cr.Stats.IOs()))
			builds = append(builds, float64(cr.Builds))
		}

		if i%readsPerWrite == readsPerWrite-1 {
			delta := model.delta()
			op := r.tr.newOp()
			sp := r.tr.start("cluster.update", 0, op)
			c.tt.op.Store(op)
			c.tt.span.Store(sp.id())
			t := time.Now()
			ur, err := c.cl.Update(ctx, delta)
			d := time.Since(t)
			sp.end()
			if err == nil && (ur.Added != deltaHalf || ur.Removed != deltaHalf) {
				err = fmt.Errorf("cluster update: %d added and %d removed, want %d each", ur.Added, ur.Removed, deltaHalf)
			}
			if !p.op(err) {
				break // the model no longer matches the cluster
			}
			deltas = append(deltas, delta)
			writeMS = append(writeMS, float64(d)/1e6)
			if len(writeIOs) < firstWrites {
				writeIOs = append(writeIOs, float64(ur.MergeIOs))
			}
		}
	}
	rssMB := rss.finish()
	procLayer(p.layer, a, sampleProc(), read.n(), workers)
	if err := p.readMetrics(read, ttfb, &clock, rssMB, emits); err != nil {
		return nil, err
	}
	if len(ios) < simReads || len(writeIOs) < firstWrites {
		return nil, fmt.Errorf("cluster: %d reads and %d writes in the run, need %d and %d", len(ios), len(writeIOs), simReads, firstWrites)
	}

	// The oracle, after the timed loop: one in-process handle replays the
	// routed deltas, and at every epoch its Ordered stream is what each
	// gathered stream of that epoch must equal.
	ref, err := repro.Build(repro.FromEdges(r.edges), repro.Options{MemoryWords: r.w.m, BlockWords: r.w.b, Workers: workers})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	p.layer["graph.canon_ios"] = float64(ref.CanonIOs())
	var refMS, mergeIOs []float64
	next := 0
	for e := 0; e <= len(deltas); e++ {
		var rb tris
		t := time.Now()
		if _, err := ref.TrianglesFunc(ctx, repro.Query{Mode: repro.ModeNative, Ordered: true, Workers: workers}, rb.add); err != nil {
			return nil, err
		}
		refMS = append(refMS, float64(time.Since(t))/1e6)
		want, seq := rb.digests()
		for ; next < len(reads) && reads[next].epoch == e; next++ {
			var err error
			if g := reads[next]; g.seq != seq {
				err = fmt.Errorf("cluster read at epoch %d: gathered stream (%d triangles) differs from the reference Ordered stream (%d)", e, g.n, want.N)
			}
			p.op(err)
		}
		if e == len(deltas) {
			break
		}
		sp := r.tr.start("graph.update", 0, r.tr.newOp())
		ur, err := ref.Update(ctx, deltas[e])
		sp.end()
		if err != nil {
			return nil, err
		}
		if e < firstWrites {
			mergeIOs = append(mergeIOs, float64(ur.MergeIOs))
		}
	}

	// Every gathered read runs on the simulated machine.
	if err := p.simMetrics(read, &clock); err != nil {
		return nil, err
	}
	p.e2e["read_ios"] = mean(ios)
	p.layer["extmem.block_ios"] = mean(enumIOs)
	p.layer["extmem.word_ops"] = mean(words)
	p.layer["extmem.peak_lease_words"] = mean(lease)
	p.layer["cluster.canon_ios"] = mean(canon)
	p.layer["cluster.enum_ios"] = mean(enumIOs)
	p.layer["cluster.builds"] = mean(builds)
	p.layer["update.write_ms_p50"] = median(writeMS)
	p.layer["update.write_ios"] = mean(writeIOs)
	p.layer["graph.merge_ios"] = mean(mergeIOs)
	if r.tr.on.Load() {
		clusterTraced(r, p, refMS)
		if err := inprocProbe(r, ref, p, referenceTriangles(model.list())); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// clusterTraced derives the cluster's per-layer metrics from the traced
// loop's spans: set-up steps, per-shard handler time against the gather,
// and the 2PC phases.
func clusterTraced(r *runner, p *phase, refMS []float64) {
	spans := r.tr.spans()
	p.layer["graph.build_ms"] = median(byName(spans, "graph.build"))
	p.layer["graph.open_ms"] = median(byName(spans, "graph.open"))
	p.layer["graph.merge_ms"] = median(byName(spans, "graph.update"))
	p.layer["cluster.partition_ms"] = median(byName(spans, "cluster.partition"))
	p.layer["cluster.dial_ms"] = median(byName(spans, "cluster.dial"))
	p.layer["cluster.prepare_ms"] = median(byName(spans, "cluster.shard.update.prepare"))
	p.layer["cluster.commit_ms"] = median(byName(spans, "cluster.shard.update.commit"))
	p.layer["serve.read_handler_ms"] = median(byName(spans, "cluster.shard.query"))
	p.layer["serve.write_handler_ms"] = median(append(byName(spans, "cluster.shard.update.prepare"), byName(spans, "cluster.shard.update.commit")...))

	type perRead struct {
		gather      float64
		shards      []float64
		shardsBytes int64
	}
	reads := map[uint64]*perRead{}
	for _, s := range spans {
		if s.Name == "cluster.gather" {
			reads[s.Op] = &perRead{gather: s.ms()}
		}
	}
	for _, s := range spans {
		if pr, ok := reads[s.Op]; ok && s.Name == "cluster.shard.query" {
			pr.shards = append(pr.shards, s.ms())
			pr.shardsBytes += s.Bytes
		}
	}
	var mx, mn, coord, gather, bytesPer []float64
	for _, pr := range reads {
		if len(pr.shards) != clusterShards {
			continue
		}
		hi, lo := max(pr.shards[0], pr.shards[1]), min(pr.shards[0], pr.shards[1])
		mx, mn = append(mx, hi), append(mn, lo)
		coord = append(coord, pr.gather-hi)
		gather = append(gather, pr.gather)
		bytesPer = append(bytesPer, float64(pr.shardsBytes))
	}
	p.layer["cluster.shard_ms_max"] = median(mx)
	p.layer["cluster.shard_ms_min"] = median(mn)
	p.layer["cluster.coord_ms"] = median(coord)
	p.layer["serve.wire_bytes_per_read"] = mean(bytesPer)
	p.layer["serve.inproc_ratio"] = median(gather) / median(refMS)
}
