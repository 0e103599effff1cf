// Command perfbench is the repository's benchmark: it runs one named
// workload against the engine, checks every output against an oracle,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload enum --seed 1 --seconds 25 --trace 0
//
// Latencies and throughput are in ref units, multiples of the CPU time
// of a fixed reference computation run beside them (see ref.go), so that
// the load of a shared host does not move them; set-up time is in CPU
// seconds. Inputs come from repro.Generate(spec, seed) alone; the engine receives
// only edges and deltas. Load comes from one process with at most two
// client goroutines, and every handle runs Workers = 2. BENCHMARK.json
// lists the workloads, why each exists, and which end-to-end metric each
// per-layer metric should move.
//
// A traced run measures the workload twice, first untraced and then with
// spans recorded around every call the benchmark makes into a layer and
// around every request the daemons handle. The per-layer metrics come
// from the traced pass, the tracing overhead is the traced-minus-untraced
// difference of each end-to-end metric, and the spans with their self
// times are written to <out>/trace/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro"
)

// workers is the Workers value of every handle: one per core of the
// two-core machine the workloads are sized for.
const workers = 2

// setUp times start, the workload's set-up, several times and records
// the median time in p: setup_s on the process CPU clock, which does not
// count the time the host keeps the process from a core (see ref.go),
// and wall.setup_s on the wall clock. It makes at least three set-ups,
// and more until two seconds are spent or forty made, so that a cheap
// set-up still yields a steady median, and returns the last instance.
// Each earlier instance is stopped before the next starts, and each
// start begins on a settled heap.
func setUp[T any](p *phase, start func(rep int) (T, error), stop func(T)) (T, error) {
	var last T
	var wall, cpu []float64
	var spent float64
	for rep := 0; len(cpu) < 3 || len(cpu) < 40 && spent < 2000; rep++ {
		if rep > 0 {
			stop(last)
		}
		settle()
		t := now()
		v, err := start(rep)
		if err != nil {
			var zero T
			return zero, err
		}
		l := t.lap()
		wall, cpu = append(wall, l.wall), append(cpu, l.cpu)
		spent += l.wall
		last = v
	}
	p.e2e["setup_s"] = median(cpu) / 1000
	p.layer["wall.setup_s"] = median(wall) / 1000
	return last, nil
}

// settle collects garbage and returns freed memory to the system, so
// that a timed section does not pay for the garbage of the one before.
func settle() { debug.FreeOSMemory() }

type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload, untraced. The latencies
// and the throughput are in ref units (see ref.go), so that they do not
// move with the load of the shared host the benchmark runs on; their
// wall-clock twins are per-layer metrics under wall.*. Set-up time is
// on the process CPU clock, the median of several set-ups.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"read_ref_p50", "ref"},
	{"read_ref_p90", "ref"},
	{"ttfb_ref_p50", "ref"},
	{"emits_per_ref", "1/ref"},
	{"read_sim_ref_p50", "ref"},
	{"read_ios", "count"},
	{"rss_p90_mb", "MB"},
}

// layerDef is a per-layer metric and the end-to-end metric it should
// move, on the workloads in brackets.
type layerDef struct{ name, unit, moves string }

// layerMetrics are reported by every traced run; a layer a workload does
// not exercise reports 0. The tracing overhead of each end-to-end metric
// follows them as trace.overhead.<name>.
var layerMetrics = []layerDef{
	{"wall.setup_s", "s", "setup_s [all]"},
	{"wall.read_ms_p50", "ms", "read_ref_p50 [all]"},
	{"wall.read_ms_p90", "ms", "read_ref_p90 [all]"},
	{"wall.ttfb_ms_p50", "ms", "ttfb_ref_p50 [all]"},
	{"wall.emits_per_s", "1/s", "emits_per_ref [all]"},
	{"wall.read_sim_ms_p50", "ms", "read_sim_ref_p50 [all]"},
	{"host.ref_ms", "ms", "none: the host's speed [all]"},
	{"host.ref_cpu_ms", "ms", "none: the host's speed, the unit of every ref metric [all]"},
	{"extmem.fill_ms", "ms", "setup_s, update.write_ms_p50 [churn, enum]"},
	{"extmem.fill_file_ms", "ms", "setup_s [cluster]"},
	{"extmem.block_ios", "count", "read_ios [enum]"},
	{"extmem.word_ops", "count", "read_sim_ref_p50 [enum]"},
	{"extmem.peak_lease_words", "words", "rss_p90_mb [all]"},
	{"emsort.sort_ms", "ms", "setup_s, update.write_ms_p50 [churn]"},
	{"emsort.sort_ios", "count", "update.write_ios [churn]"},
	{"graph.build_ms", "ms", "setup_s [all]"},
	{"graph.canon_ios", "count", "setup_s [all]"},
	{"graph.merge_ms", "ms", "update.write_ms_p50 [churn]"},
	{"graph.merge_ios", "count", "update.write_ios [churn, cluster]"},
	{"graph.open_ms", "ms", "setup_s [cluster]"},
	{"trienum.cacheaware_ms", "ms", "read_ref_p50 [enum]"},
	{"trienum.deterministic_ms", "ms", "read_ref_p90 [enum]"},
	{"trienum.first_emit_ms", "ms", "ttfb_ref_p50 [enum]"},
	{"trienum.subproblems", "count", "read_ios [enum]"},
	{"trienum.x", "count", "read_ios [enum]"},
	{"trienum.colors", "count", "read_ios [enum]"},
	{"trienum.high_deg_vertices", "count", "read_ios [enum]"},
	{"trienum.worker_io_skew", "ratio", "read_sim_ref_p50 [enum]"},
	{"trienum.cpu_util", "ratio", "read_ref_p50, emits_per_ref [enum]"},
	{"trienum.oblivious_ms", "ms", "none: a witness, no mix contains CacheOblivious [all]"},
	{"repro.ordered_extra_ms", "ms", "read_ref_p90, rss_p90_mb [churn]"},
	{"repro.alloc_mb_per_read", "MB", "rss_p90_mb, read_ref_p50 [all]"},
	{"repro.gc_pause_ms", "ms", "read_ref_p90 [all]"},
	{"update.write_ms_p50", "ms", "a user-visible write latency [churn, cluster]"},
	{"update.write_ios", "count", "a user-visible write cost [churn, cluster]"},
	{"update.change_ms_p50", "ms", "a user-visible change-stream latency [churn]"},
	{"diff.change_ios", "count", "update.change_ms_p50 [churn]"},
	{"diff.changes_per_write", "count", "update.change_ms_p50 [churn]"},
	{"diff.lag_ms", "ms", "update.change_ms_p50 [churn]"},
	{"serve.read_handler_ms", "ms", "read_ref_p50, emits_per_ref [churn]"},
	{"serve.wire_overhead_ms", "ms", "read_ref_p50, emits_per_ref [churn]"},
	{"serve.inproc_ratio", "ratio", "read_ref_p50, emits_per_ref [churn]"},
	{"serve.wire_bytes_per_read", "bytes", "read_ref_p50, emits_per_ref [churn]"},
	{"serve.write_handler_ms", "ms", "update.write_ms_p50 [churn]"},
	{"cluster.partition_ms", "ms", "setup_s [cluster]"},
	{"cluster.dial_ms", "ms", "setup_s [cluster]"},
	{"cluster.shard_ms_max", "ms", "read_ref_p50 [cluster]"},
	{"cluster.shard_ms_min", "ms", "read_ref_p50 [cluster]"},
	{"cluster.coord_ms", "ms", "read_ref_p50 [cluster]"},
	{"cluster.canon_ios", "count", "read_ios [cluster]"},
	{"cluster.enum_ios", "count", "read_ios [cluster]"},
	{"cluster.builds", "count", "read_ios [cluster]"},
	{"cluster.prepare_ms", "ms", "update.write_ms_p50 [cluster]"},
	{"cluster.commit_ms", "ms", "update.write_ms_p50 [cluster]"},
	{"proc.cpu_user_s", "s", "emits_per_ref [all]"},
	{"proc.cpu_sys_s", "s", "emits_per_ref [all]"},
	{"proc.rss_hwm_mb", "MB", "rss_p90_mb [all]"},
	{"trace.spans", "count", "the tracing overhead [all]"},
}

// workload is one named input and traffic mix.
type workload struct {
	name, spec string
	n          int // vertex ids of the spec, the range deltas draw from
	m, b       int
	run        func(r *runner) (*phase, error)
}

var workloads = []*workload{
	{name: "enum", spec: "powerlaw:n=3000,m=16000,beta=2.1", n: 3000, m: 1024, b: 32, run: runEnum},
	{name: "churn", spec: "powerlaw:n=6000,m=32000,beta=2.1", n: 6000, m: 1 << 16, b: 1 << 7, run: runChurn},
	{name: "cluster", spec: "powerlaw:n=500,m=2700,beta=2.1", n: 500, m: 4096, b: 64, run: runCluster},
}

// runner carries one run's inputs to a workload.
type runner struct {
	w       *workload
	seed    uint64
	seconds time.Duration
	// deadline ends the current phase's loop extension, so that a run
	// finishes within three minutes even on a busy machine.
	deadline time.Time
	edges    [][2]uint32
	tr       *tracer
	tmp      string
}

// phase is one measured pass of a workload.
type phase struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	errs      []string
}

func newPhase() *phase {
	return &phase{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op counts one attempted operation and, if err is non-nil, one failure.
func (p *phase) op(err error) bool {
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < 20 {
			p.errs = append(p.errs, err.Error())
		}
		return false
	}
	return true
}

// readSeed is the query seed of the i-th read: fresh for every read and
// a function of the workload seed alone.
func (r *runner) readSeed(i int) uint64 { return mix64(r.seed<<24 ^ uint64(i)) }

// keepGoing reports whether a measured loop that started at t0 should
// continue: until the run length has passed, then on while it is short
// of the samples its percentiles need, until the phase's deadline. On a
// busy machine a run thus takes longer instead of reporting a percentile
// without the samples to back it.
func (r *runner) keepGoing(t0 time.Time, short bool) bool {
	return time.Since(t0) < r.seconds || short && time.Now().Before(r.deadline)
}

// readMetrics fills the read-side metrics of p: the end-to-end ones in
// ref units of clock and their wall-clock twins per layer. The
// throughput divides the emissions by the time spent in reads, so that
// the client's own checking between reads does not count against it.
func (p *phase) readMetrics(read, ttfb timings, clock *refClock, rss []float64, emits int64) error {
	var err error
	if p.e2e["rss_p90_mb"], err = percentile(rss, 90); err != nil {
		return fmt.Errorf("rss_p90_mb: %w", err)
	}
	readRef := read.inRef(clock)
	for _, c := range []struct {
		name string
		xs   []float64
		p    float64
		m    map[string]float64
	}{
		{"read_ref_p50", readRef, 50, p.e2e},
		{"read_ref_p90", readRef, 90, p.e2e},
		{"ttfb_ref_p50", ttfb.inRef(clock), 50, p.e2e},
		{"wall.read_ms_p50", read.wall(), 50, p.layer},
		{"wall.read_ms_p90", read.wall(), 90, p.layer},
		{"wall.ttfb_ms_p50", ttfb.wall(), 50, p.layer},
	} {
		if c.m[c.name], err = percentile(c.xs, c.p); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	p.e2e["emits_per_ref"] = float64(emits) / sum(readRef)
	p.layer["wall.emits_per_s"] = float64(emits) / (sum(read.wall()) / 1000)
	var refWall, refCPU []float64
	for _, l := range clock.runs {
		refWall, refCPU = append(refWall, l.wall), append(refCPU, l.cpu)
	}
	p.layer["host.ref_ms"] = median(refWall)
	p.layer["host.ref_cpu_ms"] = median(refCPU)
	return nil
}

// simMetrics fills read_sim_ref_p50 and its wall-clock twin from the
// times of the simulated reads.
func (p *phase) simMetrics(sim timings, clock *refClock) error {
	var err error
	if p.e2e["read_sim_ref_p50"], err = percentile(sim.inRef(clock), 50); err != nil {
		return fmt.Errorf("read_sim_ref_p50: %w", err)
	}
	if p.layer["wall.read_sim_ms_p50"], err = percentile(sim.wall(), 50); err != nil {
		return fmt.Errorf("wall.read_sim_ms_p50: %w", err)
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: enum, churn or cluster")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "length of each measured loop in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	out := flag.String("out", ".bench_build", "directory for scratch files and traces")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, out string) error {
	var w *workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	edges, err := repro.Generate(w.spec, seed)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	r := &runner{w: w, seed: seed, seconds: time.Duration(seconds) * time.Second, edges: edges, tr: newTracer(), tmp: tmp}

	start := time.Now()
	r.deadline = start.Add(150 * time.Second)
	if traced {
		r.deadline = start.Add(70 * time.Second)
	}
	base, err := w.run(r)
	if err != nil {
		return err
	}
	env := envHeader(w, seed, seconds, workers)
	// The wall-clock twins and the host's speed go to standard error, so
	// that a reader comparing runs sees what the ref units took out.
	for _, m := range layerMetrics {
		if v, ok := base.layer[m.name]; ok && (strings.HasPrefix(m.name, "wall.") || strings.HasPrefix(m.name, "host.")) {
			fmt.Fprintf(os.Stderr, "%s %.4g %s\n", m.name, v, m.unit)
		}
	}
	res, values := base, base.e2e
	metrics := map[string]any{}
	for _, m := range e2eMetrics {
		metrics[m.name] = m.unit
	}

	if traced {
		r.deadline = start.Add(150 * time.Second)
		r.tr.on.Store(true)
		tp, err := w.run(r)
		if err != nil {
			return err
		}
		if err := tracedProbes(r, tp.layer); err != nil {
			return err
		}
		r.tr.on.Store(false)
		if tp.layer["proc.rss_hwm_mb"], err = procStatusMB("VmHWM"); err != nil {
			return err
		}
		spans := r.tr.spans()
		tp.layer["trace.spans"] = float64(len(spans))
		metrics = map[string]any{}
		moves := map[string]string{}
		for _, m := range layerMetrics {
			metrics[m.name] = m.unit
			moves[m.name] = m.moves
		}
		for _, m := range e2eMetrics {
			name := "trace.overhead." + m.name
			tp.layer[name] = tp.e2e[m.name] - base.e2e[m.name]
			metrics[name] = m.unit
			fmt.Fprintf(os.Stderr, "%s %+.4g %s\n", name, tp.layer[name], m.unit)
		}
		if err := writeTrace(out, w.name, seed, env, spans, tp.layer, moves); err != nil {
			return err
		}
		tp.attempted += base.attempted
		tp.failed += base.failed
		tp.errs = append(base.errs, tp.errs...)
		res, values = tp, tp.layer
	}

	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "failed:", e)
	}
	for name, unit := range metrics {
		metrics[name] = map[string]any{"value": values[name], "unit": unit}
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	return nil
}

// tracedProbes runs the probes every traced run adds, whatever the
// workload: the extmem and emsort probes at the workload's machine and
// input size, and one native CacheOblivious query on the cluster
// workload's graph.
func tracedProbes(r *runner, layer map[string]float64) error {
	if err := layerProbes(layer, r.w.m, r.w.b, workers, int64(len(r.edges)), r.seed, r.tmp); err != nil {
		return err
	}
	cw := workloads[2]
	edges, err := repro.Generate(cw.spec, r.seed)
	if err != nil {
		return err
	}
	g, err := repro.Build(repro.FromEdges(edges), repro.Options{MemoryWords: cw.m, BlockWords: cw.b, Workers: workers})
	if err != nil {
		return err
	}
	defer g.Close()
	var buf tris
	sp := r.tr.start("trienum.oblivious", 0, r.tr.newOp())
	_, err = g.TrianglesFunc(context.Background(), repro.Query{Algorithm: repro.CacheOblivious, Mode: repro.ModeNative, Seed: r.readSeed(0)}, buf.add)
	sp.end()
	if err != nil {
		return err
	}
	if got, _ := buf.digests(); got != referenceTriangles(edges) {
		return fmt.Errorf("oblivious probe: triangle set differs from the reference")
	}
	layer["trienum.oblivious_ms"] = median(byName(r.tr.spans(), "trienum.oblivious"))
	return nil
}

// writeTrace writes the traced run's spans, their per-name summary with
// self times, and the per-layer metrics with what each should move.
func writeTrace(out, name string, seed uint64, env map[string]any, spans []span, layer map[string]float64, moves map[string]string) error {
	dir := filepath.Join(out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.MarshalIndent(map[string]any{
		"env":     env,
		"layer":   layer,
		"moves":   moves,
		"summary": summarize(spans),
		"spans":   spans,
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	fmt.Fprintln(os.Stderr, "trace written to", path)
	return os.WriteFile(path, b, 0o644)
}
