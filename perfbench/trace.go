package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one benchmark operation
// (a read, a write, a set-up) share Op; Parent is the span that caused it.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Op     uint64        `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int64         `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory while it is on; switched off, starting a
// span costs one atomic load and records nothing.
type tracer struct {
	on   atomic.Bool
	t0   time.Time
	ids  atomic.Uint64
	ops  atomic.Uint64
	mu   sync.Mutex
	done []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// live is a started span; a nil *live (tracer off) ignores every call.
type live struct {
	tr *tracer
	sp span
}

func (t *tracer) newOp() uint64 { return t.ops.Add(1) }

func (t *tracer) start(name string, parent, op uint64) *live {
	if !t.on.Load() {
		return nil
	}
	return &live{tr: t, sp: span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Start: time.Since(t.t0)}}
}

func (l *live) id() uint64 {
	if l == nil {
		return 0
	}
	return l.sp.ID
}

func (l *live) end() {
	if l == nil {
		return
	}
	l.sp.End = time.Since(l.tr.t0)
	l.tr.mu.Lock()
	l.tr.done = append(l.tr.done, l.sp)
	l.tr.mu.Unlock()
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.done...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children. Overlapping children (parallel
// shard calls, say) are counted once.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range kids[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanSummary aggregates spans by name for the trace file.
type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	MedianMS float64 `json:"median_ms"`
	SelfMS   float64 `json:"self_ms"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	by := map[string][]span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	out := make([]spanSummary, 0, len(by))
	for name, ss := range by {
		sum := spanSummary{Name: name, Count: len(ss)}
		ds := make([]float64, len(ss))
		for i, s := range ss {
			ds[i] = s.ms()
			sum.TotalMS += ds[i]
			sum.SelfMS += float64(self[s.ID]) / 1e6
		}
		sum.MedianMS = median(ds)
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// byName returns the durations in ms of the spans named name.
func byName(spans []span, name string) []float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, s.ms())
		}
	}
	return ds
}

// Headers that carry the benchmark's operation and parent span across
// the wire, so that a handler span joins the client span that caused it.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

func tag(h http.Header, op, parent uint64) {
	h.Set(hdrOp, strconv.FormatUint(op, 10))
	h.Set(hdrSpan, strconv.FormatUint(parent, 10))
}

// middleware records one span per request handled by next, named
// prefix + the route's last path element (query, update) — update
// spans of a cluster shard also get their 2PC phase — and counts the
// response bytes.
func (t *tracer) middleware(prefix string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		name := prefix + r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		if strings.HasSuffix(name, ".update") && strings.Contains(r.URL.Path, "/cluster/shard/") {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var ph struct{ Phase string }
				if json.Unmarshal(body, &ph) == nil && ph.Phase != "" {
					name += "." + ph.Phase
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		op, _ := strconv.ParseUint(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		l := t.start(name, parent, op)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		if l != nil {
			l.sp.Bytes = cw.n
		}
		l.end()
	})
}

// countingWriter counts body bytes and keeps the server's streaming
// flushes working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// tagTransport stamps every request with the operation and span the
// single client goroutine is currently in; the coordinator's own
// requests to the shards pass through it.
type tagTransport struct {
	base     http.RoundTripper
	op, span atomic.Uint64
}

func (tt *tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	tag(r.Header, tt.op.Load(), tt.span.Load())
	return tt.base.RoundTrip(r)
}
