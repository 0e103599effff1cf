// Command trienumd serves repro graphs over HTTP/JSON: a multi-tenant
// query daemon over the library's handle machinery (immutable shared
// cores, per-query session Spaces, MVCC generations, durable images).
//
// Usage:
//
//	trienumd -addr :7154
//	trienumd -addr :7154 -open social=social.img -build toy=gnm:n=1000,m=8000
//	trienumd -addr :7154 -max-tenant-sessions 4 -max-tenant-mwords 262144
//	trienumd -addr :7154 -pprof localhost:6060
//
// Endpoints (docs/API.md specifies the wire contract in full):
//
//	GET    /v1/graphs                   list loaded graphs
//	POST   /v1/graphs                   build or open a graph
//	GET    /v1/graphs/{id}              one graph's info
//	DELETE /v1/graphs/{id}              close and unload
//	POST   /v1/graphs/{id}/query       stream results as NDJSON
//	POST   /v1/graphs/{id}/update      apply a batched delta
//	POST   /v1/graphs/{id}/subscriptions  standing query: long-lived change stream
//	POST   /v1/graphs/{id}/checkpoint  promote the durable image
//	GET    /v1/stats                    per-tenant budgets and usage
//
// Cluster roles (the scatter–gather layer; see ARCHITECTURE.md):
//
//	trienumd -addr :7155 -shard cluster.json -shard-index 0
//	trienumd -addr :7154 -coordinator cluster.json -shards http://h0:7155,http://h1:7156
//
// A shard daemon opens its sub-image from the manifest written by
// repro.Partition and adds the /v1/cluster/shard/* endpoints; a
// coordinator daemon dials every shard and adds /v1/cluster/query,
// /v1/cluster/update and /v1/cluster/info — the gathered stream is
// byte-identical to a single-process ordered query of the full graph.
//
// -auth-token-file names a file holding a bearer token (surrounding
// whitespace trimmed); when set, every endpoint except GET /healthz
// requires "Authorization: Bearer <token>" and answers 401 otherwise,
// before the X-Tenant header is trusted. A coordinator forwards the
// same token to its shards, so one shared token secures the cluster.
//
// Query streams preserve the library's determinism contract over the
// wire: the NDJSON lines are byte-identical to the in-process callback
// query at every worker count, a limit-stopped stream returns an opaque
// cursor, and resuming with it emits exactly the uncursored stream's
// suffix. Subscription streams carry one generation-stamped ChangeSet
// line per effective update — exactly the tuples the update added and
// retracted, computed differentially — and reconnect exactly via
// after_generation. Tenants (the X-Tenant header) are
// admission-controlled budgets of concurrent sessions and session
// M-words; exhausted budgets get 429.
//
// -pprof serves the standard net/http/pprof profiling endpoints on a
// separate listener (off by default; keep it on localhost — it is
// unauthenticated). The service address never exposes the profiler.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: the listener
// closes, in-flight query streams drain to their trailers (bounded by
// -shutdown-timeout), and every graph handle is closed — disk-backed
// ones checkpoint their latest generation over the image on the way
// out.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// Connection timeouts of both listeners. They bound only the idle parts
// of a connection — sending request headers, and waiting between
// keep-alive requests — so a client that opens connections and stalls
// cannot pin them forever. There is deliberately no read or write
// timeout: query and subscription streams legitimately run for as long
// as the result (or the subscription) lasts.
const (
	// readHeaderTimeout bounds the time to read a request's headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout bounds how long a keep-alive connection waits for its
	// next request.
	idleTimeout = 2 * time.Minute
)

// multiFlag collects repeated id=value flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		addr        = flag.String("addr", ":7154", "listen address")
		maxSessions = flag.Int("max-tenant-sessions", 0, "max concurrent sessions per tenant (0 = unlimited)")
		maxMWords   = flag.Int64("max-tenant-mwords", 0, "max total session M-words per tenant (0 = unlimited)")
		flushEvery  = flag.Int("flush-every", 0, "flush NDJSON streams every N lines (0 = default)")
		m           = flag.Int("m", 0, "MemoryWords for graphs loaded via -open/-build (0 = library default)")
		b           = flag.Int("b", 0, "BlockWords for graphs loaded via -open/-build (0 = library default)")
		workers     = flag.Int("workers", 0, "default Workers for loaded graphs (0 = one per CPU)")
		shutdownT   = flag.Duration("shutdown-timeout", 30*time.Second, "grace period for draining active streams on shutdown")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address, e.g. localhost:6060 (off when empty)")
		authFile    = flag.String("auth-token-file", "", "file holding the bearer token every request must carry (off when empty)")
		shardMan    = flag.String("shard", "", "cluster manifest path: serve this daemon as one shard of the cluster")
		shardIndex  = flag.Int("shard-index", 0, "which manifest shard this daemon serves (with -shard)")
		coordMan    = flag.String("coordinator", "", "cluster manifest path: serve this daemon as the cluster coordinator")
		shardURLs   = flag.String("shards", "", "comma-separated shard base URLs, in manifest order (with -coordinator)")
		opens       multiFlag
		builds      multiFlag
	)
	flag.Var(&opens, "open", "id=path: adopt a durable image at boot (repeatable)")
	flag.Var(&builds, "build", "id=spec: build a memory graph from a generator spec at boot (repeatable)")
	flag.Parse()

	var authToken string
	if *authFile != "" {
		b, err := os.ReadFile(*authFile)
		if err != nil {
			log.Fatalf("-auth-token-file: %v", err)
		}
		authToken = strings.TrimSpace(string(b))
		if authToken == "" {
			log.Fatalf("-auth-token-file %s: file holds no token", *authFile)
		}
	}

	srv := serve.New(serve.Config{
		MaxTenantSessions:    *maxSessions,
		MaxTenantMemoryWords: *maxMWords,
		FlushEvery:           *flushEvery,
		AuthToken:            authToken,
	})
	opts := repro.Options{MemoryWords: *m, BlockWords: *b, Workers: *workers}
	if err := bootLoad(srv, opens, builds, opts); err != nil {
		srv.Close()
		log.Fatal(err)
	}
	if err := bootCluster(srv, *shardMan, *shardIndex, *coordMan, *shardURLs, authToken, opts); err != nil {
		srv.Close()
		log.Fatal(err)
	}

	// The profiler gets its own listener and mux so it is never exposed
	// on the service address: opt in with -pprof, point it at localhost,
	// and the query endpoints stay unprofiled and unpolluted.
	var ps *http.Server
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps = &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
		go func() {
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
		log.Printf("pprof listening on %s", *pprofAddr)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("trienumd listening on %s", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("%v: draining active streams (up to %v)", sig, *shutdownT)
	case err := <-errCh:
		srv.Close()
		log.Fatal(err)
	}

	// Graceful shutdown: stop accepting, let in-flight streams run to
	// their trailers, then close every handle — Graph.Close's
	// close-guard waits for any query that outlived the HTTP drain, and
	// disk-backed handles promote their latest generation (checkpoint)
	// before the process exits.
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownT)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v (closing anyway)", err)
		hs.Close()
	}
	if ps != nil {
		ps.Close()
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("closing graphs: %v", err)
	}
	log.Printf("trienumd stopped")
}

// bootCluster configures the daemon's cluster role, if any: open the
// owned sub-image for a shard, dial the shard fleet for a coordinator.
func bootCluster(srv *serve.Server, shardMan string, shardIndex int, coordMan, shardURLs, authToken string, opts repro.Options) error {
	if shardMan != "" && coordMan != "" {
		return errors.New("-shard and -coordinator are mutually exclusive")
	}
	if shardMan != "" {
		man, err := cluster.Load(shardMan)
		if err != nil {
			return err
		}
		if shardIndex < 0 || shardIndex >= len(man.Shards) {
			return fmt.Errorf("-shard-index %d out of range (manifest has %d shards)", shardIndex, len(man.Shards))
		}
		img := man.ImagePath(shardMan, shardIndex)
		g, or, err := repro.Open(img, repro.Options{
			MemoryWords: man.MemoryWords,
			BlockWords:  man.BlockWords,
			Workers:     opts.Workers,
		})
		if err != nil {
			return fmt.Errorf("-shard: opening sub-image %s: %w", img, err)
		}
		if err := srv.ServeShard(man, shardIndex, g); err != nil {
			return errors.Join(err, g.Close())
		}
		sh := man.Shards[shardIndex]
		log.Printf("serving shard %d: colors [%d,%d) of %d, %d vertices, %d edges from %s",
			shardIndex, sh.Lo, sh.Hi, man.Colors, or.Vertices, or.Edges, img)
		return nil
	}
	if coordMan != "" {
		urls := strings.Split(shardURLs, ",")
		if shardURLs == "" || len(urls) == 0 {
			return errors.New("-coordinator needs -shards url1,url2,...")
		}
		cl, err := repro.DialCluster(context.Background(), coordMan, urls, repro.DialOptions{AuthToken: authToken})
		if err != nil {
			return err
		}
		if err := srv.ServeCoordinator(cl); err != nil {
			return errors.Join(err, cl.Close())
		}
		log.Printf("coordinating %d shards: %d colors, epoch %d, %d vertices, %d edges",
			cl.Shards(), cl.Colors(), cl.Epoch(), cl.NumVertices(), cl.NumEdges())
	}
	return nil
}

// bootLoad registers the -open and -build graphs before the listener
// starts, so they are queryable from the first request.
func bootLoad(srv *serve.Server, opens, builds multiFlag, opts repro.Options) error {
	for _, kv := range opens {
		id, path, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("-open %q: want id=path", kv)
		}
		g, or, err := repro.Open(path, opts)
		if err != nil {
			return fmt.Errorf("-open %s: %w", kv, err)
		}
		if err := srv.AddGraph(id, g, path); err != nil {
			return errors.Join(err, g.Close())
		}
		log.Printf("opened %s from %s: generation %d, %d vertices, %d edges, %d WAL records replayed",
			id, path, or.Generation, or.Vertices, or.Edges, or.Replayed)
	}
	for _, kv := range builds {
		id, spec, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("-build %q: want id=spec", kv)
		}
		g, err := repro.Build(repro.FromSpec(spec), opts)
		if err != nil {
			return fmt.Errorf("-build %s: %w", kv, err)
		}
		if err := srv.AddGraph(id, g, ""); err != nil {
			return errors.Join(err, g.Close())
		}
		log.Printf("built %s from %s: %d vertices, %d edges", id, spec, g.NumVertices(), g.NumEdges())
	}
	return nil
}
