// Command bellflower-server is a long-lived HTTP matching daemon: it
// indexes one schema repository and serves concurrent match requests from
// many clients through the bellflower concurrent matching service
// (bounded worker pool, in-flight deduplication, LRU report cache).
//
//	bellflower-server -synthetic 9759 -addr :8077
//	bellflower-server -repo-file ./repo.txt -workers 8 -timeout 5s
//	bellflower-server -synthetic 9759 -shards 4
//
// With -shards N the repository is partitioned into N shards (vocabulary
// co-locating by default; -partition balanced splits by node count), each
// served by its own worker pool; every match request fans out across all
// shards concurrently and the per-shard ranked lists are merged into one
// global top-N report. Shards are views over one shared labelling index —
// the repository is indexed once regardless of N — and cold-path element
// matching and clustering run once per request in a shared pre-pass
// projected onto the shards, which run only mapping generation; a repeated
// request is answered from the router's own report cache and asks no
// shard. Cache memory across the router and all shards answers to one byte
// budget (-cache-bytes);
// entries never expire, because a repository swap replaces the whole
// backend and its caches. -partial serves partially failed fan-outs as
// incomplete reports instead of errors.
//
// The same fan-out also runs ACROSS PROCESSES. Every process loads the
// same repository (same -repo-file or the same -synthetic/-seed pair) and
// partitions it identically; shard servers host one shard each and the
// router ships per-request candidate projections over HTTP:
//
//	bellflower-server -synthetic 9759 -shard-of 0/2 -addr :8081
//	bellflower-server -synthetic 9759 -shard-of 1/2 -addr :8082
//	bellflower-server -synthetic 9759 -remote-shards :8081,:8082 -addr :8077
//
// A -shard-of process serves only the shard wire protocol
// (/v1/shard/match, /v1/shard/stats) plus /healthz and /metrics; the
// -remote-shards router serves the full public API and merges remote
// reports byte-identically to an unsharded run. With -partial, a dead
// shard server degrades requests to incomplete reports instead of errors.
//
// Each -remote-shards entry may name several REPLICAS of one shard
// separated by '|' (-remote-shards ":8081|:8083,:8082|:8084"): identical
// -shard-of processes the router load-balances across and fails over
// between mid-request, so one replica dying still yields a complete
// report. A background health loop (-health-interval, -health-failures)
// probes every replica, marks it unhealthy after consecutive failures —
// under -partial an all-replicas-down shard is then skipped without
// paying a per-request timeout — and re-admits it only after a probe
// re-verifies the shard descriptor. Health state is visible per shard in
// /v1/stats ("replicas") and as bellflower_shard_healthy in /metrics.
//
// Endpoints (JSON unless noted):
//
//	POST /v1/match        {"personal":"book(title,author)","options":{"delta":0.75,"timeout_ms":2000}}
//	                      append ?trace=1 for the request's span tree inline in the response
//	POST /v1/match/batch  {"requests":[{...},{...}]}
//	POST /v1/rewrite      {"personal":"...","query":"/book/title","mapping_rank":0}
//	GET  /v1/repository   repository source, size and shard count
//	POST /v1/repository   {"action":"synthetic","nodes":9759} | {"action":"load","path":...} | {"action":"save","path":...}
//	                      mutation requires the -data-dir opt-in; load/save paths are relative to it;
//	                      the previous repository drains (in-flight requests finish) before it is released
//	GET  /v1/stats        cache hits, in-flight dedupe, queue depth, latency histograms with
//	                      per-stage breakdowns and p50/p95/p99, uptime and build provenance
//	                      (sharded servers report {"total":...,"shards":[...]})
//	GET  /v1/traces       bounded ring of recent request traces, plus the slow ring (-slow-ms)
//	GET  /metrics         the same counters in Prometheus text format
//	GET  /healthz         liveness probe
//
// Every /v1/match request runs under a request-scoped trace: each serving
// and pipeline stage records a span, a distributed fan-out stitches the
// shards' spans into the router's tree over the X-Bellflower-Trace header,
// and requests at least -slow-ms long are logged with their full span
// breakdown. Logs are structured JSON on stderr (log/slog). -debug-addr
// starts a SEPARATE listener with net/http/pprof profiles and expvar at
// /debug/vars — keep it private; it is never mounted on the public
// listener.
//
// Per-request deadlines come from options.timeout_ms (or the -timeout
// default); an expired deadline cancels the underlying pipeline run and
// returns 504. A run that panics answers 500 to every request sharing it,
// with the stack on its trace span, and the daemon keeps serving.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bellflower"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bellflower-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bellflower-server", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8077", "listen address")
		repoFile     = fs.String("repo-file", "", "load a repository saved with bellflower -save-repo")
		synthetic    = fs.Int("synthetic", 0, "generate a synthetic repository with this many nodes")
		seed         = fs.Int64("seed", 1, "seed for the synthetic repository")
		workers      = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 0, "request queue depth (0 = 4x workers)")
		cacheSize    = fs.Int("cache", 0, "report cache capacity in entries, per shard and for a sharded router's merged reports (0 = 256, negative = disabled)")
		cacheBytes   = fs.Int64("cache-bytes", 0, "byte budget for the unified cache (all shards' reports + the router's merged reports; 0 = unbounded)")
		maxNodes     = fs.Int("max-schema-nodes", 0, "reject personal schemas above this node count (0 = 64; negative = no service limit, the pipeline still refuses more than 64)")
		timeout      = fs.Duration("timeout", 30*time.Second, "default per-request deadline (0 = none)")
		shards       = fs.Int("shards", 1, "partition the repository into this many shards and fan match requests out across them")
		partition    = fs.String("partition", "clustered", "shard partition strategy: clustered (co-locate trees with overlapping vocabulary) or balanced (by node count)")
		partial      = fs.Bool("partial", false, "serve partially failed fan-outs as incomplete reports (merge the shards that succeeded) instead of failing the request")
		shardOf      = fs.String("shard-of", "", "host one shard of the partitioned repository for a distributed router: INDEX/COUNT (e.g. 0/4); serves /v1/shard/match and /v1/shard/stats instead of the public API")
		remoteShards = fs.String("remote-shards", "", "comma-separated shard-server addresses (host:port,...); '|' groups replicas of one shard (a1|a2,b); fan match requests out to those processes instead of in-process shards")
		healthIntvl  = fs.Duration("health-interval", 0, "base period of the background health probes against remote shard replicas, jittered +/-20% (0 = 5s default, negative = probing disabled)")
		healthFails  = fs.Int("health-failures", 0, "consecutive probe/transport failures before a remote replica is marked unhealthy (0 = 3)")
		dataDir      = fs.String("data-dir", "", "directory for /v1/repository load/save files; also enables repository mutation (empty = POST /v1/repository disabled)")
		slowMS       = fs.Int("slow-ms", 0, "log a full span breakdown for requests at least this many milliseconds long, and capture them in the /v1/traces slow ring (0 = disabled)")
		debugAddr    = fs.String("debug-addr", "", "listen address for the debug listener (net/http/pprof profiles + expvar at /debug/vars); empty = disabled")
		maxBodyBytes = fs.Int64("max-body-bytes", 0, "cap on public-API request bodies in bytes; oversized bodies are rejected with 413 (0 = 1 MiB; the shard wire endpoint keeps its own 64 MiB projection cap)")
		wireCodec    = fs.String("wire-codec", "auto", "deprecated no-op: the shard wire protocol is binary only; auto and binary are accepted and mean the same, json (the retired JSON codec) is refused")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardOf != "" && *remoteShards != "" {
		return errors.New("-shard-of and -remote-shards are different roles; pick one")
	}
	if (*shardOf != "" || *remoteShards != "") && *shards != 1 {
		return errors.New("-shards applies only to in-process sharding; distributed roles take their fan-out from -shard-of / -remote-shards")
	}
	if (*shardOf != "" || *remoteShards != "") && *dataDir != "" {
		return errors.New("-data-dir (repository mutation) is not supported in distributed roles: every process must keep the same repository")
	}
	switch *wireCodec {
	case "auto", "binary":
	case "json":
		return errors.New("-wire-codec json: the JSON shard codec is retired; /v1/shard/match speaks binary only (drop the flag)")
	default:
		return fmt.Errorf("-wire-codec %q: want auto or binary", *wireCodec)
	}
	if *maxBodyBytes < 0 {
		return fmt.Errorf("-max-body-bytes %d must not be negative", *maxBodyBytes)
	}

	repo, desc, err := buildRepository(*repoFile, *synthetic, *seed)
	if err != nil {
		return err
	}
	strategy, err := bellflower.ParsePartitionStrategy(*partition)
	if err != nil {
		return err
	}
	svcCfg := bellflower.ServiceConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		CacheBytes:     *cacheBytes,
		MaxSchemaNodes: *maxNodes,
		DefaultTimeout: *timeout,
		PartialResults: *partial,
		HealthInterval: *healthIntvl,
		HealthFailures: *healthFails,
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	st := repo.Stats()
	slowThreshold := time.Duration(*slowMS) * time.Millisecond
	rec := bellflower.NewTraceRecorder(0, 0, slowThreshold)

	var handler http.Handler
	var closeNow func()
	switch {
	case *shardOf != "":
		idx, n, err := parseShardOf(*shardOf)
		if err != nil {
			return err
		}
		host, err := bellflower.NewShardHost(repo, idx, n, svcCfg, strategy)
		if err != nil {
			return err
		}
		host.SetTraceRecorder(rec)
		hostStats := host.Service().RepositoryStats()
		logger.Info("hosting shard",
			"shard", idx, "shards", n, "repository", desc, "partition", strategy.String(),
			"trees", hostStats.Trees, "repo_trees", st.Trees,
			"nodes", hostStats.Nodes, "repo_nodes", st.Nodes, "addr", *addr)
		handler = shardRoutes(host, rec, logger)
		closeNow = host.Close
	case *remoteShards != "":
		addrs, err := splitShardAddrs(*remoteShards)
		if err != nil {
			return err
		}
		backend, err := bellflower.NewDistributedService(repo, addrs, svcCfg, strategy)
		if err != nil {
			return err
		}
		srv := newRemoteServer(backend, repo, desc, svcCfg.CacheSize >= 0, logger)
		srv.setTracing(rec, slowThreshold)
		srv.setMaxBody(*maxBodyBytes)
		logger.Info("serving",
			"repository", desc, "trees", st.Trees, "nodes", st.Nodes,
			"remote_shards", backend.NumShards(), "shard_addrs", *remoteShards, "addr", *addr)
		handler = srv.routes()
		closeNow = srv.closeNow
	default:
		srv := newServer(repo, desc, svcCfg, *shards, strategy, *dataDir, logger)
		srv.setTracing(rec, slowThreshold)
		srv.setMaxBody(*maxBodyBytes)
		// Log the backend's actual shard count: -shards clamps to the number
		// of repository trees.
		logger.Info("serving",
			"repository", desc, "trees", st.Trees, "nodes", st.Nodes,
			"shards", srv.numShards(), "addr", *addr)
		handler = srv.routes()
		closeNow = srv.closeNow
	}
	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           debugRoutes(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		defer dbg.Close()
		logger.Info("debug listener", "addr", *debugAddr)
	}
	// Full connection timeouts, not just the header one: without a
	// ReadTimeout a client can trickle a request body forever, and without
	// an IdleTimeout abandoned keep-alive connections pin file descriptors
	// for the process lifetime. The write timeout caps the whole response
	// and so must exceed the request deadline — it tracks -timeout with
	// headroom, and an unbounded -timeout (0) leaves it unbounded too
	// rather than cutting legitimate long matches off mid-response.
	writeTimeout := time.Duration(0)
	if *timeout > 0 {
		writeTimeout = *timeout + 30*time.Second
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Info("shutting down")
		// Force-close the backend first: in-flight matches (which may hold
		// their handlers for up to the default timeout) fail fast with
		// 503, letting Shutdown drain within its budget instead of
		// timing out behind a slow pipeline run.
		closeNow()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// parseShardOf parses the -shard-of INDEX/COUNT argument. Both sides must
// be clean integers — trailing junk ("1/2/4", "0/2x") is a typo the
// operator needs to hear about, not a prefix to silently accept.
func parseShardOf(s string) (idx, n int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard-of %q: want INDEX/COUNT, e.g. 0/4", s)
	}
	idx, errIdx := strconv.Atoi(a)
	n, errN := strconv.Atoi(b)
	if errIdx != nil || errN != nil {
		return 0, 0, fmt.Errorf("-shard-of %q: want INDEX/COUNT, e.g. 0/4", s)
	}
	if n < 1 || idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("-shard-of %q: index must be in [0,%d)", s, n)
	}
	return idx, n, nil
}

// splitShardAddrs parses the -remote-shards list — comma-separated shards,
// each optionally a '|'-separated replica group ("a1|a2,b") — trimming
// whitespace and rejecting empty shards and empty replica entries: a
// trailing comma (or a "a1|") would otherwise materialize as a permanently
// dead shard or replica that -partial then quietly tolerates.
func splitShardAddrs(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("-remote-shards %q: empty address entry", s)
		}
		replicas := strings.Split(p, "|")
		for i, rep := range replicas {
			rep = strings.TrimSpace(rep)
			if rep == "" {
				return nil, fmt.Errorf("-remote-shards %q: empty replica address in %q", s, p)
			}
			replicas[i] = rep
		}
		out = append(out, strings.Join(replicas, "|"))
	}
	return out, nil
}

func buildRepository(repoFile string, synthetic int, seed int64) (*bellflower.Repository, string, error) {
	switch {
	case repoFile != "" && synthetic > 0:
		return nil, "", fmt.Errorf("use either -repo-file or -synthetic, not both")
	case repoFile != "":
		f, err := os.Open(repoFile)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		repo, err := bellflower.LoadRepository(f)
		if err != nil {
			return nil, "", err
		}
		return repo, repoFile, nil
	case synthetic > 0:
		cfg := bellflower.DefaultSyntheticConfig()
		cfg.TargetNodes = synthetic
		cfg.Seed = seed
		repo, err := bellflower.Synthetic(cfg)
		if err != nil {
			return nil, "", err
		}
		return repo, fmt.Sprintf("synthetic(%d,seed=%d)", synthetic, seed), nil
	default:
		return nil, "", fmt.Errorf("a repository is required (-repo-file FILE or -synthetic N)")
	}
}
