package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
)

// firstWrites is the fixed prefix of writes whose deterministic counters
// (merge and diff I/Os) are averaged, so that they repeat exactly for a
// seed however many writes a run fits in.
const firstWrites = 8

// readsPerChurnWrite paces churn's writer: it sends one delta per this
// many completed reads. An Update holds the graph's install lock for its
// whole merge, so a free-running writer would leave the reader one read
// per write; pacing by reads rather than by the clock keeps the share of
// reads that wait on a merge the same on a slower or busier machine.
const readsPerChurnWrite = 16

// minWrites is the fewest writes a churn run makes before it may end.
const minWrites = 10

// churnSimReads is the size of churn's simulated set. It is larger than
// enum's because churn's reads are short and all of them sit before the
// timed loop rather than spread through it.
const churnSimReads = 100

// daemon is an in-process trienumd serving one graph, with a standing
// triangle subscription on the served handle.
type daemon struct {
	g   *repro.Graph
	srv *serve.Server
	hs  *httptest.Server
	sub *repro.Subscription
	hc  *http.Client
}

func (d *daemon) close() {
	d.hc.CloseIdleConnections()
	d.sub.Close()
	d.hs.Close()
	d.srv.Close()
}

func startDaemon(r *runner) (*daemon, error) {
	op := r.tr.newOp()
	g, err := build(r, r.edges, r.w.m, r.w.b, op)
	if err != nil {
		return nil, err
	}
	sp := r.tr.start("serve.start", 0, op)
	defer sp.end()
	d := &daemon{g: g, srv: serve.New(serve.Config{})}
	if err := d.srv.AddGraph("g", g, ""); err != nil {
		g.Close()
		return nil, err
	}
	d.hs = httptest.NewServer(r.tr.middleware("serve.", d.srv.Handler()))
	// One connection per client goroutine: the reader and the writer.
	d.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	if d.sub, err = g.Subscribe(context.Background(), repro.Query{}); err != nil {
		d.hs.Close()
		d.srv.Close()
		return nil, err
	}
	return d, nil
}

// servedRead is one query answered over the wire.
type servedRead struct {
	total, first lap // to the last NDJSON byte and to the first line
	trailer      serve.QueryTrailer
	set          setDigest
	sorted       bool
}

// read runs one served query; buf and body are reused scratch. The clock
// stops at the last NDJSON byte; parsing and hashing happen after it.
func (d *daemon) read(q serve.QueryRequest, op, parent uint64, buf *tris, body *[]byte) (servedRead, error) {
	var sr servedRead
	reqBody, err := json.Marshal(q)
	if err != nil {
		return sr, err
	}
	req, err := http.NewRequest(http.MethodPost, d.hs.URL+"/v1/graphs/g/query", bytes.NewReader(reqBody))
	if err != nil {
		return sr, err
	}
	tag(req.Header, op, parent)
	t := now()
	resp, err := d.hc.Do(req)
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	data := (*body)[:0]
	first := false
	for {
		if cap(data)-len(data) < 1<<16 {
			data = append(data[:cap(data)], make([]byte, 1<<20)...)[:len(data)]
		}
		n, rerr := resp.Body.Read(data[len(data):cap(data)])
		if !first && bytes.IndexByte(data[len(data):len(data)+n], '\n') >= 0 {
			sr.first, first = t.lap(), true
		}
		data = data[:len(data)+n]
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return sr, rerr
		}
	}
	sr.total = t.lap()
	*body = data
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("query: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	*buf = (*buf)[:0]
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if v, ok := bytes.CutPrefix(line, []byte(`{"v":[`)); ok {
			t, ok := parseTriple(v)
			if !ok {
				return sr, fmt.Errorf("query: malformed emission line %q", line)
			}
			buf.add(t[0], t[1], t[2])
			continue
		}
		if err := json.Unmarshal(line, &sr.trailer); err != nil {
			return sr, fmt.Errorf("query: bad trailer %q: %v", line, err)
		}
	}
	switch {
	case !sr.trailer.Done || sr.trailer.Error != "":
		return sr, fmt.Errorf("query: stream ended without a clean trailer: %q", sr.trailer.Error)
	case sr.trailer.Delivered != uint64(len(*buf)/3):
		return sr, fmt.Errorf("query: trailer says %d emissions, stream had %d", sr.trailer.Delivered, len(*buf)/3)
	}
	sr.set, _ = buf.digests()
	sr.sorted = buf.sortedLex()
	return sr, nil
}

// parseTriple parses "a,b,c]}", the tail of an emission line, without
// allocating: the client parses a few hundred thousand lines a second.
func parseTriple(v []byte) (t [3]uint32, ok bool) {
	k, digits := 0, 0
	var x uint64
	for i, c := range v {
		if c >= '0' && c <= '9' && digits < 10 {
			x = x*10 + uint64(c-'0')
			digits++
			continue
		}
		if digits == 0 || x > math.MaxUint32 {
			return t, false
		}
		t[k], k, x, digits = uint32(x), k+1, 0, 0
		switch {
		case c == ',' && k < 3:
		case c == ']' && k == 3 && string(v[i:]) == "]}":
			return t, true
		default:
			return t, false
		}
	}
	return t, false
}

// update sends one delta to the daemon.
func (d *daemon) update(delta repro.Delta, op, parent uint64) (serve.UpdateResponse, error) {
	var ur serve.UpdateResponse
	b, err := json.Marshal(serve.UpdateRequest{Add: delta.Add, Remove: delta.Remove})
	if err != nil {
		return ur, err
	}
	req, err := http.NewRequest(http.MethodPost, d.hs.URL+"/v1/graphs/g/update", bytes.NewReader(b))
	if err != nil {
		return ur, err
	}
	tag(req.Header, op, parent)
	resp, err := d.hc.Do(req)
	if err != nil {
		return ur, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ur, err
	}
	if resp.StatusCode != http.StatusOK {
		return ur, fmt.Errorf("update: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &ur); err != nil {
		return ur, err
	}
	if ur.Added != deltaHalf || ur.Removed != deltaHalf {
		return ur, fmt.Errorf("update: %d added and %d removed, want %d each", ur.Added, ur.Removed, deltaHalf)
	}
	return ur, nil
}

// churnRead is the i-th reader query: native CacheAware, plain and
// Ordered 3:1.
func churnRead(r *runner, i int, native bool) serve.QueryRequest {
	return serve.QueryRequest{Algorithm: "cacheaware", Seed: r.readSeed(i), Native: native, Ordered: i%4 == 3, Workers: workers}
}

// readRec is what the oracle needs of one timed read once the loop ends.
type readRec struct {
	i      int
	gen    uint64
	set    setDigest
	sorted bool
	order  bool
}

// runChurn serves reads beside writes through the daemon: one reader
// client, one writer client sending E-preserving 16-edge deltas, and the
// change stream of an in-process subscription on the served handle.
func runChurn(r *runner) (*phase, error) {
	p := newPhase()
	d, err := setUp(p, func(int) (*daemon, error) { return startDaemon(r) }, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer d.close()
	p.layer["graph.canon_ios"] = float64(d.g.CanonIOs())
	want := referenceTriangles(r.edges)

	// The simulated set, served on generation 0 before any write.
	settle()
	var buf tris
	var body []byte
	var clock refClock
	var sim timings
	var ios, words, lease []float64
	for i := 0; i < churnSimReads; i++ {
		q := churnRead(r, i, false)
		ref := clock.mark()
		sr, err := d.read(q, r.tr.newOp(), 0, &buf, &body)
		if err == nil {
			err = checkSet("churn simulated read", i, sr.set, want)
		}
		if err == nil && q.Ordered && !sr.sorted {
			err = fmt.Errorf("churn simulated read %d: ordered stream not sorted", i)
		}
		if !p.op(err) {
			continue
		}
		st := sr.trailer.Result.Stats
		sim.add(sr.total, ref)
		ios = append(ios, float64(st.BlockReads+st.BlockWrites))
		words = append(words, float64(st.WordReads+st.WordWrites))
		lease = append(lease, float64(st.PeakLeaseWords))
	}
	if err := p.simMetrics(sim, &clock); err != nil {
		return nil, err
	}
	p.e2e["read_ios"] = mean(ios)
	p.layer["extmem.block_ios"] = mean(ios)
	p.layer["extmem.word_ops"] = mean(words)
	p.layer["extmem.peak_lease_words"] = mean(lease)

	// Timed loop: the reader runs closed-loop on its own goroutine and
	// decides when the loop ends; the writer runs on this one, one delta
	// per readsPerChurnWrite reads.
	var (
		stop       = make(chan struct{})
		due        = make(chan struct{}, 1)
		nWrites    atomic.Int64
		read, ttfb timings
		recs       []readRec
		emits      int64
		readErrs   []error
		wg         sync.WaitGroup
	)
	need := needFor(90)
	settle()
	a := sampleProc()
	rss := sampleRSS()
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		var buf tris
		var body []byte
		for i := churnSimReads; r.keepGoing(t0, read.n() < need || nWrites.Load() < minWrites); i++ {
			q := churnRead(r, i, true)
			ref := clock.mark()
			op := r.tr.newOp()
			sp := r.tr.start("serve.read", 0, op)
			sr, err := d.read(q, op, sp.id(), &buf, &body)
			sp.end()
			if err != nil {
				readErrs = append(readErrs, err)
				continue
			}
			read.add(sr.total, ref)
			if read.n()%readsPerChurnWrite == 0 {
				select {
				case due <- struct{}{}:
				default: // the writer is still busy with the previous delta
				}
			}
			ttfb.add(sr.first, ref)
			emits += int64(sr.trailer.Delivered)
			recs = append(recs, readRec{i: i, gen: sr.trailer.Generation, set: sr.set, sorted: sr.sorted, order: q.Ordered})
		}
	}()

	model := newEdgeModel(r.edges, r.w.n, r.seed)
	gens := map[uint64]setDigest{d.sub.Generation(): want}
	last := d.sub.Generation()
	var writeMS, changeMS, lagMS, mergeIOs, changeIOs, changes []float64
writes:
	for j := 0; ; j++ {
		select {
		case <-stop:
			break writes
		case <-due:
		}
		delta := model.delta()
		op := r.tr.newOp()
		sp := r.tr.start("serve.write", 0, op)
		sent := time.Now()
		ur, err := d.update(delta, op, sp.id())
		done := time.Now()
		sp.end()
		if err != nil {
			p.op(err)
			break // the model no longer matches the served graph
		}
		var cs repro.ChangeSet
		for cs.Generation < ur.Generation && err == nil {
			select {
			case c, ok := <-d.sub.Changes():
				if !ok {
					err = fmt.Errorf("subscription ended: %v", d.sub.Err())
				}
				cs = c
			case <-time.After(time.Minute):
				err = fmt.Errorf("no ChangeSet for generation %d", ur.Generation)
			}
		}
		recv := time.Now()
		if err == nil && cs.Generation != last+1 {
			err = fmt.Errorf("ChangeSet for generation %d follows generation %d", cs.Generation, last)
		}
		if !p.op(err) {
			break
		}
		dg := gens[last]
		for _, t := range cs.Added {
			dg.add(t[0], t[1], t[2])
		}
		for _, t := range cs.Removed {
			dg.sub(t[0], t[1], t[2])
		}
		last = cs.Generation
		gens[last] = dg
		writeMS = append(writeMS, float64(done.Sub(sent))/1e6)
		changeMS = append(changeMS, float64(recv.Sub(sent))/1e6)
		lagMS = append(lagMS, float64(recv.Sub(done))/1e6)
		if j < firstWrites {
			mergeIOs = append(mergeIOs, float64(ur.MergeIOs))
			changeIOs = append(changeIOs, float64(cs.Stats.IOs()))
			changes = append(changes, float64(len(cs.Added)+len(cs.Removed)))
		}
		nWrites.Add(1)
	}
	wg.Wait()
	rssMB := rss.finish()
	procLayer(p.layer, a, sampleProc(), read.n(), workers)
	for _, err := range readErrs {
		p.op(err)
	}
	for _, rec := range recs {
		var err error
		if w, ok := gens[rec.gen]; !ok {
			err = fmt.Errorf("churn read %d ran on generation %d, which no ChangeSet produced", rec.i, rec.gen)
		} else if err = checkSet("churn read", rec.i, rec.set, w); err == nil && rec.order && !rec.sorted {
			err = fmt.Errorf("churn read %d: ordered stream not sorted", rec.i)
		}
		p.op(err)
	}
	if err := p.readMetrics(read, ttfb, &clock, rssMB, emits); err != nil {
		return nil, err
	}
	if len(mergeIOs) < firstWrites {
		return nil, fmt.Errorf("churn: only %d writes in the run, need %d", len(mergeIOs), firstWrites)
	}

	// The final generation must equal a fresh Build of the model's edges.
	final := model.list()
	p.op(checkFresh(r, final, gens[last]))

	p.layer["update.write_ms_p50"] = median(writeMS)
	p.layer["update.change_ms_p50"] = median(changeMS)
	p.layer["update.write_ios"] = mean(mergeIOs)
	p.layer["graph.merge_ios"] = mean(mergeIOs)
	p.layer["diff.lag_ms"] = median(lagMS)
	p.layer["diff.change_ios"] = mean(changeIOs)
	p.layer["diff.changes_per_write"] = mean(changes)
	if r.tr.on.Load() {
		if err := churnTraced(r, d, p, gens[last], model); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// checkFresh builds the edge list afresh and compares its triangle set
// with want and with the independent reference lister.
func checkFresh(r *runner, edges [][2]uint32, want setDigest) error {
	g, err := repro.Build(repro.FromEdges(edges), repro.Options{MemoryWords: r.w.m, BlockWords: r.w.b, Workers: workers})
	if err != nil {
		return err
	}
	defer g.Close()
	var buf tris
	if _, err := g.TrianglesFunc(context.Background(), repro.Query{Mode: repro.ModeNative, Workers: workers}, buf.add); err != nil {
		return err
	}
	got, _ := buf.digests()
	if err := checkSet("fresh build of the final edge set", 0, got, want); err != nil {
		return err
	}
	return checkSet("reference listing of the final edge set", 0, referenceTriangles(edges), want)
}

// churnTraced derives churn's per-layer metrics from the traced loop's
// spans and runs its probes: in-process against served reads of the same
// query, and in-process updates for the merge's own time.
func churnTraced(r *runner, d *daemon, p *phase, want setDigest, model *edgeModel) error {
	spans := r.tr.spans()
	p.layer["graph.build_ms"] = median(byName(spans, "graph.build"))
	p.layer["serve.read_handler_ms"] = median(byName(spans, "serve.query"))
	p.layer["serve.write_handler_ms"] = median(byName(spans, "serve.update"))
	handler := map[uint64]span{}
	var bytesPer []float64
	for _, s := range spans {
		if s.Name == "serve.query" {
			handler[s.Op] = s
			bytesPer = append(bytesPer, float64(s.Bytes))
		}
	}
	var wire []float64
	for _, s := range spans {
		if h, ok := handler[s.Op]; ok && s.Name == "serve.read" {
			wire = append(wire, s.ms()-h.ms())
		}
	}
	p.layer["serve.wire_overhead_ms"] = median(wire)
	p.layer["serve.wire_bytes_per_read"] = mean(bytesPer)

	if err := inprocProbe(r, d.g, p, want); err != nil {
		return err
	}
	var served, inproc []float64
	var buf tris
	var body []byte
	for i := 0; i < inprocProbeReps; i++ {
		q := churnRead(r, 3000+i, true)
		sr, err := d.read(q, r.tr.newOp(), 0, &buf, &body)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := d.g.TrianglesFunc(context.Background(), repro.Query{Seed: q.Seed, Mode: repro.ModeNative, Ordered: q.Ordered, Workers: workers}, func(a, b, c uint32) {}); err != nil {
			return err
		}
		served, inproc = append(served, sr.total.wall), append(inproc, float64(time.Since(t))/1e6)
	}
	p.layer["serve.inproc_ratio"] = median(served) / median(inproc)

	d.sub.Close()
	for i := 0; i < 3; i++ {
		sp := r.tr.start("graph.update", 0, r.tr.newOp())
		_, err := d.g.Update(context.Background(), model.delta())
		sp.end()
		if err != nil {
			return err
		}
	}
	p.layer["graph.merge_ms"] = median(byName(r.tr.spans(), "graph.update"))
	return nil
}
