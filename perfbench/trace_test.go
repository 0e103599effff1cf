package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestTracerConcurrentRequests records client and handler spans from two
// client goroutines at once, as the churn workload does; run it with
// -race.
func TestTracerConcurrentRequests(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	hs := httptest.NewServer(tr.middleware("serve.", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "0123456789")
	})))
	defer hs.Close()
	const clients, each = 2, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				op := tr.newOp()
				sp := tr.start("serve.read", 0, op)
				req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/graphs/g/query", nil)
				tag(req.Header, op, sp.id())
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				sp.end()
			}
		}()
	}
	wg.Wait()
	spans := tr.spans()
	handlers := map[uint64]span{}
	for _, s := range spans {
		if s.Name == "serve.query" {
			handlers[s.Op] = s
		}
	}
	if len(spans) != 2*clients*each || len(handlers) != clients*each {
		t.Fatalf("%d spans, %d handler ops; want %d and %d", len(spans), len(handlers), 2*clients*each, clients*each)
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if h := handlers[s.Op]; s.Name == "serve.read" && (h.Parent != s.ID || h.Bytes != 10 || self[s.ID] > s.End-s.Start) {
			t.Errorf("handler span %+v does not join client span %+v", h, s)
		}
	}
}
