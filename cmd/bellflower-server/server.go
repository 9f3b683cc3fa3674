package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bellflower"
)

// backendRef is one generation of the served backend (a Service or a
// ShardedService) with the repository it was built from. The reference
// count holds the backend open across the requests still using it: the
// server owns one reference for as long as the generation is current, and
// every in-flight request holds one more. The backend is closed by
// whichever release drops the count to zero, so a repository swap drains
// gracefully — requests that grabbed the old generation finish against it
// and only then are its workers shut down.
type backendRef struct {
	backend bellflower.ServiceBackend
	repo    *bellflower.Repository // original (unpartitioned) repository, for save
	desc    string
	refs    atomic.Int64
}

// release drops one reference, closing the backend when the last holder is
// gone.
func (ref *backendRef) release() {
	if ref.refs.Add(-1) == 0 {
		ref.backend.Close()
	}
}

// server routes HTTP traffic onto a bellflower serving backend. The current
// generation is swapped atomically by POST /v1/repository; see backendRef
// for the drain semantics.
type server struct {
	mu      sync.Mutex
	cur     *backendRef
	retired []*backendRef // swapped-out generations that may still be draining

	svcCfg    bellflower.ServiceConfig
	shards    int
	partition bellflower.PartitionStrategy
	dataDir   string // sandbox for repository load/save; "" disables those actions
	maxBody   int64
	logger    *slog.Logger

	// aliasing is whether the backend keeps a report cache (-cache is not
	// negative): match bodies are then read whole and looked up by their
	// bytes before they are decoded. Off, they are decoded off the wire.
	aliasing bool

	// Observability: every /v1/match request runs under a RequestTrace;
	// finished traces feed the recorder (the /v1/traces ring) and, past the
	// slow threshold, a full span breakdown goes to the structured log.
	rec   *bellflower.TraceRecorder
	slow  time.Duration // 0 disables slow-request logging
	start time.Time     // process start, for /v1/stats uptime
}

const defaultMaxBody = 1 << 20 // 1 MiB of JSON is far beyond any sane schema spec

// buildBackend starts the serving backend for a repository: a plain
// Service, or a ShardedService (with the requested partition strategy)
// when more than one shard is requested.
func buildBackend(repo *bellflower.Repository, cfg bellflower.ServiceConfig, shards int, partition bellflower.PartitionStrategy) bellflower.ServiceBackend {
	if shards > 1 {
		return bellflower.NewShardedServicePartitioned(repo, shards, cfg, partition)
	}
	return bellflower.NewService(repo, cfg)
}

func newServer(repo *bellflower.Repository, repoDesc string, svcCfg bellflower.ServiceConfig, shards int, partition bellflower.PartitionStrategy, dataDir string, logger *slog.Logger) *server {
	if logger == nil {
		logger = defaultLogger()
	}
	if shards < 1 {
		shards = 1
	}
	ref := &backendRef{backend: buildBackend(repo, svcCfg, shards, partition), repo: repo, desc: repoDesc}
	ref.refs.Store(1) // the server's own reference
	return &server{
		cur:       ref,
		svcCfg:    svcCfg,
		shards:    shards,
		partition: partition,
		dataDir:   dataDir,
		maxBody:   defaultMaxBody,
		logger:    logger,
		aliasing:  svcCfg.CacheSize >= 0,
		rec:       bellflower.NewTraceRecorder(0, 0, 0),
		start:     time.Now(),
	}
}

// defaultLogger is the daemon's structured JSON log on stderr.
func defaultLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(os.Stderr, nil))
}

// newRemoteServer wraps a prebuilt distributed backend
// (bellflower.NewDistributedService). Repository mutation stays disabled
// (dataDir empty → POST /v1/repository is 403): the shard servers hold
// their own repository copies, and swapping only the router's copy would
// desynchronize the partition descriptors. aliasing says whether the
// backend keeps a report cache (see server.aliasing).
func newRemoteServer(backend bellflower.ServiceBackend, repo *bellflower.Repository, desc string, aliasing bool, logger *slog.Logger) *server {
	if logger == nil {
		logger = defaultLogger()
	}
	ref := &backendRef{backend: backend, repo: repo, desc: desc}
	ref.refs.Store(1)
	return &server{
		cur: ref, maxBody: defaultMaxBody, logger: logger, aliasing: aliasing,
		rec: bellflower.NewTraceRecorder(0, 0, 0), start: time.Now(),
	}
}

// setTracing overrides the default trace ring and slow-log threshold (flag
// wiring; not safe once traffic is flowing).
func (s *server) setTracing(rec *bellflower.TraceRecorder, slow time.Duration) {
	if rec != nil {
		s.rec = rec
	}
	s.slow = slow
}

// setMaxBody overrides the request-body cap (-max-body-bytes flag wiring;
// 0 keeps the default; not safe once traffic is flowing).
func (s *server) setMaxBody(n int64) {
	if n > 0 {
		s.maxBody = n
	}
}

// acquire returns the current generation with one reference added; callers
// must release it when the request is done.
func (s *server) acquire() *backendRef {
	s.mu.Lock()
	ref := s.cur
	ref.refs.Add(1)
	s.mu.Unlock()
	return ref
}

// swap installs a new generation and surrenders the server's reference to
// the old one: the old backend drains — it closes when its last in-flight
// request releases it, cancelling nothing. The old generation is tracked
// until it has drained so closeNow can still reach it.
func (s *server) swap(repo *bellflower.Repository, desc string) {
	ref := &backendRef{backend: buildBackend(repo, s.svcCfg, s.shards, s.partition), repo: repo, desc: desc}
	ref.refs.Store(1)
	s.mu.Lock()
	old := s.cur
	s.cur = ref
	kept := s.retired[:0]
	for _, r := range s.retired {
		if r.refs.Load() > 0 { // prune generations that finished draining
			kept = append(kept, r)
		}
	}
	s.retired = append(kept, old)
	s.mu.Unlock()
	old.release()
}

// closeNow force-closes the current backend and any swapped-out
// generations still draining, cancelling their in-flight requests — the
// process-shutdown path, where failing fast beats draining slowly.
func (s *server) closeNow() {
	s.mu.Lock()
	refs := append([]*backendRef{s.cur}, s.retired...)
	s.mu.Unlock()
	for _, r := range refs {
		r.backend.Close() // idempotent; drained generations are no-ops
	}
}

// numShards reports the actual (clamped) shard count of the current
// backend.
func (s *server) numShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.backend.NumShards()
}

// resolveDataPath confines a client-supplied repository path to the data
// directory: clients never touch the filesystem outside it, and the
// actions are off entirely unless the operator opted in with -data-dir.
func (s *server) resolveDataPath(p string) (string, int, error) {
	if s.dataDir == "" {
		return "", http.StatusForbidden, errors.New("repository load/save disabled; start the server with -data-dir")
	}
	if p == "" || !filepath.IsLocal(p) {
		return "", http.StatusBadRequest, fmt.Errorf("path %q must be relative and stay inside the data directory", p)
	}
	return filepath.Join(s.dataDir, p), 0, nil
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/match", s.handleMatch)
	mux.HandleFunc("/v1/match/batch", s.handleBatch)
	mux.HandleFunc("/v1/rewrite", s.handleRewrite)
	mux.HandleFunc("/v1/repository", s.handleRepository)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return logRequests(s.logger, mux)
}

// shardRoutes is the -shard-of mode's surface: the shard wire protocol
// (match + stats), liveness, and the shard service's own Prometheus
// metrics. The public matching endpoints are deliberately absent — a shard
// server answers its router, not end clients — but the shard keeps its own
// /v1/traces ring (rec; nil disables it) so a slow shard can be inspected
// directly.
func shardRoutes(host *bellflower.ShardHost, rec *bellflower.TraceRecorder, logger *slog.Logger) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "mode": "shard"})
	})
	mux.HandleFunc("/v1/shard/match", host.HandleMatch)
	mux.HandleFunc("/v1/shard/stats", host.HandleStats)
	mux.HandleFunc("/v1/traces", func(w http.ResponseWriter, r *http.Request) {
		writeTraces(w, r, rec)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The host's own snapshot, not the bare service's: the wire-byte and
		// slim-request counters live on the shard server.
		if err := host.WritePrometheus(w); err != nil {
			logger.Error("metrics write failed", "error", err)
		}
	})
	return logRequests(logger, mux)
}

// debugRoutes is the -debug-addr listener's surface: the net/http/pprof
// profiling handlers plus expvar at /debug/vars, on a mux of their own so
// the public listener never exposes them.
func debugRoutes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(time.Since(start))/float64(time.Millisecond))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController (flush, write deadlines) reach the
// real writer behind the logging wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// --- JSON wire types ---

// defaultTopN is the N of a request without top_n (or with 0), the CLI's
// -topn default; maxTopN is the largest N a request may ask for. Together
// they keep every HTTP request on the bounded top-N search: top_n 0 in
// the library means every mapping with Δ ≥ δ, millions of them at five or
// more personal nodes on a paper-scale repository.
const (
	defaultTopN = 10
	maxTopN     = 1000
)

// matchOptionsJSON selects pipeline options over the wire; absent fields
// keep the library defaults (DefaultOptions), except top_n (defaultTopN).
type matchOptionsJSON struct {
	Delta           *float64 `json:"delta,omitempty"`
	Alpha           *float64 `json:"alpha,omitempty"`
	K               *float64 `json:"k,omitempty"`
	MinSim          *float64 `json:"min_sim,omitempty"`
	TopN            int      `json:"top_n,omitempty"`
	Variant         string   `json:"variant,omitempty"` // small|medium|large|tree
	Matcher         string   `json:"matcher,omitempty"` // name|token|synonym|type
	Structure       string   `json:"structure,omitempty"`
	StructureWeight float64  `json:"structure_weight,omitempty"`
	Agglomerative   bool     `json:"agglomerative,omitempty"`
	AdaptiveTopN    bool     `json:"adaptive_top_n,omitempty"` // deprecated: accepted, ignored
	OrderClusters   bool     `json:"order_clusters,omitempty"`
	IncludePartials bool     `json:"include_partials,omitempty"`
	TimeoutMS       int      `json:"timeout_ms,omitempty"`
}

func (o *matchOptionsJSON) build() (bellflower.Options, error) {
	opts := bellflower.DefaultOptions()
	opts.TopN = defaultTopN
	if o == nil {
		return opts, nil
	}
	if o.Delta != nil {
		opts.Threshold = *o.Delta
	}
	if o.Alpha != nil {
		opts.Objective.Alpha = *o.Alpha
	}
	if o.K != nil {
		opts.Objective.K = *o.K
	}
	if o.MinSim != nil {
		opts.MinSim = *o.MinSim
	}
	if o.TopN < 0 || o.TopN > maxTopN {
		return opts, fmt.Errorf("top_n %d outside [0,%d]", o.TopN, maxTopN)
	}
	if o.TopN > 0 {
		opts.TopN = o.TopN
	}
	opts.Agglomerative = o.Agglomerative
	//lint:ignore SA1019 still parsed so that old clients keep working; the pipeline ignores it
	opts.AdaptiveTopN = o.AdaptiveTopN
	opts.OrderClusters = o.OrderClusters
	opts.IncludePartials = o.IncludePartials
	switch o.Variant {
	case "", "medium":
		opts.Variant = bellflower.VariantMedium
	case "small":
		opts.Variant = bellflower.VariantSmall
	case "large":
		opts.Variant = bellflower.VariantLarge
	case "tree":
		opts.Variant = bellflower.VariantTree
	default:
		return opts, fmt.Errorf("unknown variant %q (want small|medium|large|tree)", o.Variant)
	}
	switch o.Matcher {
	case "", "name":
	case "token":
		opts.Matcher = bellflower.NewNameMatcher(true)
	case "synonym":
		opts.Matcher = bellflower.NewSynonymMatcher()
	case "type":
		opts.Matcher = bellflower.NewTypeMatcher()
	default:
		return opts, fmt.Errorf("unknown matcher %q (want name|token|synonym|type)", o.Matcher)
	}
	if o.Structure != "" {
		sm, err := bellflower.NewStructureMatcher(o.Structure)
		if err != nil {
			return opts, err
		}
		opts.StructureMatcher = sm
		opts.StructureWeight = o.StructureWeight
	}
	// Validate here so malformed parameters are 400s, not pipeline 500s.
	return opts, opts.Validate()
}

// timeout returns the per-request deadline, 0 when unset.
func (o *matchOptionsJSON) timeout() time.Duration {
	if o == nil || o.TimeoutMS <= 0 {
		return 0
	}
	return time.Duration(o.TimeoutMS) * time.Millisecond
}

type matchRequestJSON struct {
	Personal string            `json:"personal"`
	Options  *matchOptionsJSON `json:"options,omitempty"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// --- handlers ---

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	return decodeJSON(w, r.Body, v)
}

// decodeJSON decodes the one JSON document rd holds into v, or answers the
// request 413 (the body passed -max-body-bytes) or 400 and returns false.
func decodeJSON(w http.ResponseWriter, rd io.Reader, v any) bool {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Decode stops after the first JSON value; anything but whitespace
		// after it makes the body malformed, not a request to serve half of.
		if _, terr := dec.Token(); terr == nil {
			err = errors.New("trailing data after the JSON document")
		} else if terr != io.EOF {
			err = terr
		}
	}
	if err != nil {
		// An oversized body is the client exceeding -max-body-bytes, not a
		// malformed one: answer 413 so the client can tell the difference.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorJSON{Error: fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// rawBody is a match request's body read whole, pooled with the scratch of
// a batch's alias-index lookup: its elements, their renderings and the
// entries answered from them. Decoding reads buf but leaves its bytes in
// place, so slices of buf.Bytes() stay valid until free. Allocating the
// scratch per batch instead cost the benchmark's warm-batch workload ~4%
// more CPU per request and ~2% on p50 and p99 (two-core Xeon).
type rawBody struct {
	buf          bytes.Buffer
	raws, bodies [][]byte
	entries      []batchEntry
}

// rawBodies recycles rawBody values; one whose buffer grew past
// maxPooledBody is dropped.
var rawBodies = sync.Pool{New: func() any { return new(rawBody) }}

const maxPooledBody = 64 << 10

// readBody reads the request body whole, under the -max-body-bytes cap, into
// a pooled rawBody (return it with free). A body that cannot be read whole
// is answered as decode answers it — decodeJSON reads the bytes read, then
// the read error again (MaxBytesReader repeats it) — and readBody returns
// nil.
func (s *server) readBody(w http.ResponseWriter, r *http.Request, v any) *rawBody {
	rb := rawBodies.Get().(*rawBody)
	rb.buf.Reset()
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if _, err := rb.buf.ReadFrom(body); err != nil {
		decodeJSON(w, io.MultiReader(&rb.buf, body), v)
		rb.free()
		return nil
	}
	return rb
}

// free returns rb to the pool, pinning no rendering.
func (rb *rawBody) free() {
	if rb.buf.Cap() > maxPooledBody {
		return
	}
	clear(rb.bodies[:cap(rb.bodies)])
	clear(rb.entries[:cap(rb.entries)])
	rawBodies.Put(rb)
}

// sized returns s with length n, reusing its array when it is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// matchStatus maps a service error to an HTTP status. The shard wire
// protocol keeps an equivalent mapping (internal/shardrpc: matchStatus +
// RemoteShard.statusError); a new error class added here should be
// mirrored there so it survives the router→shard hop instead of
// degrading to a generic 500.
func matchStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout // 504: the per-request deadline expired
	case errors.Is(err, bellflower.ErrSchemaTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, bellflower.ErrServiceClosed), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// runMatch parses one wire request and serves it through match — the
// current generation's Match (the report) or MatchJSON (its rendering,
// with the request's bytes to alias).
// Handlers acquire the generation once per request and pass its method
// down, so a concurrent repository swap cannot mix state from two
// generations within one request.
func runMatch[T any](ctx context.Context, req matchRequestJSON,
	match func(context.Context, *bellflower.Tree, bellflower.Options) (T, error)) (personal *bellflower.Tree, out T, status int, err error) {
	personal, err = bellflower.ParseSchema(req.Personal)
	if err != nil {
		return nil, out, http.StatusBadRequest, err
	}
	opts, err := req.Options.build()
	if err != nil {
		return nil, out, http.StatusBadRequest, err
	}
	if d := req.Options.timeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	out, err = match(ctx, personal, opts)
	if err != nil {
		return nil, out, matchStatus(err), err
	}
	return personal, out, http.StatusOK, nil
}

// handleMatch serves POST /v1/match. With the report cache on, the body is
// read whole and a byte-identical repeat of a request whose rendering is
// cached is found by its bytes (Backend.CachedJSON), not decoded; anything
// else is decoded from those bytes and matched, and a 200's bytes become an
// alias of its entry. With the cache off, or with ?trace=1, the body is
// decoded off the wire as it arrives, and nothing is looked up or recorded.
func (s *server) handleMatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "POST required"})
		return
	}
	var req matchRequestJSON
	traced := wantTrace(r)
	var rb *rawBody
	if s.aliasing && !traced {
		if rb = s.readBody(w, r, &req); rb == nil {
			return
		}
		defer rb.free()
	} else if !s.decode(w, r, &req) {
		return
	}
	ref := s.acquire()
	defer ref.release()
	ctx, tr, root := bellflower.StartRequestTrace(r.Context(), "serve.match")
	var raw []byte
	if rb != nil {
		raw = rb.buf.Bytes()
		one := [][]byte{raw, nil} // the body, then its rendering
		if ref.backend.CachedJSON(one[:1], one[1:]) {
			s.finishTrace(tr, root)
			writeBody(w, one[1])
			return
		}
		if !decodeJSON(w, &rb.buf, &req) {
			return
		}
	}
	_, body, status, err := runMatch(ctx, req, func(ctx context.Context, p *bellflower.Tree, o bellflower.Options) ([]byte, error) {
		return ref.backend.MatchJSON(ctx, p, o, raw)
	})
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	s.finishTrace(tr, root)
	if err != nil {
		writeJSON(w, status, errorJSON{Error: err.Error()})
		return
	}
	if traced {
		sum := tr.Summarize()
		if body, err = bellflower.AppendMatchTraceJSON(nil, body, &sum); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
			return
		}
	}
	writeBody(w, body)
}

// writeBody answers 200 with body — usually the bytes resident in a
// report's cache entry — as it is, its length known up front.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write is the client gone; nothing to report to
}

// wantTrace reports whether the client asked for the inline span tree.
func wantTrace(r *http.Request) bool { return r.URL.Query().Get("trace") == "1" }

// finishTrace ends the request's root span and feeds the trace ring. Only
// a request that crossed the -slow-ms threshold has its span tree built
// here, for the log.
func (s *server) finishTrace(tr *bellflower.RequestTrace, root *bellflower.TraceSpan) {
	root.End()
	s.rec.Observe(tr)
	if s.slow > 0 && root.Duration >= s.slow {
		sum := tr.Summarize()
		s.logger.Warn("slow request",
			"trace_id", sum.TraceID,
			"root", sum.Root,
			"dur_ms", sum.DurationMS,
			"spans", sum.Spans,
			"tree", sum.Tree)
	}
}

type batchRequestJSON struct {
	Requests []matchRequestJSON `json:"requests"`
}

// batchEntry is one batch result waiting to be written: its "result" (the
// rendered match response) or its "error" (the message as a JSON string).
type batchEntry struct {
	field  string
	value  []byte
	status int
}

// maxBatchEntries caps a batch: the body limit alone still admits tens of
// thousands of tiny entries, each pinning a parsed schema and a result until
// the response is written.
const maxBatchEntries = 256

// handleBatch serves POST /v1/match/batch. With the report cache on, the
// body is read whole; when splitBatch splits it and every element is a
// byte-identical repeat whose rendering is cached, the batch is answered
// from the alias index, decoding nothing and starting no entry span.
// Otherwise the whole body is decoded, and each element answered 200
// becomes an alias of its entry. With the cache off, or with ?trace=1, the
// body is decoded off the wire as it arrives and nothing is aliased.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "POST required"})
		return
	}
	var req batchRequestJSON
	traced := wantTrace(r)
	var rb *rawBody
	if s.aliasing && !traced {
		if rb = s.readBody(w, r, &req); rb == nil {
			return
		}
		defer rb.free()
	} else if !s.decode(w, r, &req) {
		return
	}
	ref := s.acquire() // one generation for the whole batch
	defer ref.release()
	// One trace spans the whole batch: every entry's spans record into it
	// concurrently, so the tree shows the fan-out's real overlap.
	ctx, tr, root := bellflower.StartRequestTrace(r.Context(), "serve.batch")
	var raws [][]byte
	if rb != nil {
		if raws = splitBatch(rb.buf.Bytes(), rb.raws[:0]); raws != nil {
			rb.raws, rb.bodies = raws, sized(rb.bodies, len(raws))
			if ref.backend.CachedJSON(raws, rb.bodies) {
				s.finishTrace(tr, root)
				rb.entries = sized(rb.entries, len(raws))
				for i, body := range rb.bodies {
					rb.entries[i] = batchEntry{"result", body, http.StatusOK}
				}
				s.respondBatch(w, rb.entries, nil)
				return
			}
		}
		if !decodeJSON(w, &rb.buf, &req) {
			return
		}
	}
	if len(req.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "empty batch"})
		return
	}
	if len(req.Requests) > maxBatchEntries {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorJSON{Error: fmt.Sprintf("batch of %d entries exceeds limit %d", len(req.Requests), maxBatchEntries)})
		return
	}
	if len(raws) != len(req.Requests) {
		raws = nil // no split (not read whole, or splitBatch refused): nothing to alias
	}
	entries := make([]batchEntry, len(req.Requests))
	// Entries run concurrently on as many goroutines as the backend can hold
	// requests, running or queued (more would only park behind its worker
	// pool), each pulling the next index until none is left; the service
	// deduplicates identical entries, and per-entry failures don't fail the
	// batch.
	var next atomic.Int64
	var wg sync.WaitGroup
	fanout := min(s.svcCfg.Capacity(), len(req.Requests))
	wg.Add(fanout)
	for g := 0; g < fanout; g++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(req.Requests); i = int(next.Add(1)) - 1 {
				var raw []byte
				if raws != nil {
					raw = raws[i]
				}
				ectx, esp := bellflower.StartTraceSpan(ctx, "batch.entry")
				_, body, status, err := runMatch(ectx, req.Requests[i], func(ctx context.Context, p *bellflower.Tree, o bellflower.Options) ([]byte, error) {
					return ref.backend.MatchJSON(ctx, p, o, raw)
				})
				if err != nil {
					esp.SetAttr("error", err.Error())
					msg, _ := json.Marshal(err.Error()) // a string always marshals
					entries[i] = batchEntry{"error", msg, status}
				} else {
					entries[i] = batchEntry{"result", body, status}
				}
				esp.End()
			}
		}()
	}
	wg.Wait()
	s.finishTrace(tr, root)
	var traceJSON []byte
	if traced {
		var err error
		if traceJSON, err = json.MarshalIndent(tr.Summarize(), "  ", "  "); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
			return
		}
	}
	s.respondBatch(w, entries, traceJSON)
}

// respondBatch answers 200 with the streamed batch response.
func (s *server) respondBatch(w http.ResponseWriter, entries []batchEntry, traceJSON []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := writeBatch(w, entries, traceJSON); err != nil {
		s.logger.Warn("batch response write failed", "error", err)
	}
}

// splitBatch appends the elements of a body of exactly the form
// {"requests":[e1,…,en]} — JSON whitespace between tokens, the key once in
// lowercase, 1 to maxBatchEntries objects — to raws, as slices of body; any
// other body is nil. Elements are delimited (nesting outside strings), not
// checked: only elements byte-equal to ones encoding/json decoded and that
// were answered 200 are ever served from a split.
func splitBatch(body []byte, raws [][]byte) [][]byte {
	i := expect(body, 0, `{`)
	i = expect(body, i, `"requests"`)
	i = expect(body, i, `:`)
	i = expect(body, i, `[`)
	for i >= 0 {
		i = skipSpace(body, i)
		end := objectEnd(body, i)
		if end < 0 || len(raws) == maxBatchEntries {
			return nil
		}
		raws = append(raws, body[i:end])
		if i = skipSpace(body, end); i < len(body) && body[i] == ',' {
			i++
			continue
		}
		i = expect(body, i, `]`)
		i = expect(body, i, `}`)
		if i < 0 || skipSpace(body, i) != len(body) {
			return nil
		}
		return raws
	}
	return nil
}

// expect returns the index past tok, which must follow b[i:] after JSON
// whitespace, or -1 (also when i is -1 already).
func expect(b []byte, i int, tok string) int {
	if i < 0 {
		return -1
	}
	i = skipSpace(b, i)
	if len(b)-i < len(tok) || string(b[i:i+len(tok)]) != tok {
		return -1
	}
	return i + len(tok)
}

// skipSpace returns the index of the first byte of b[i:] that is not JSON
// whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// objectEnd returns the index past the object that opens at b[i] — where
// its nesting closes, outside strings — or -1.
func objectEnd(b []byte, i int) int {
	if i >= len(b) || b[i] != '{' {
		return -1
	}
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}

// batchWriters recycles writeBatch's 32 KB buffered writers.
var batchWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// writeBatch streams the batch response — {"results": [{"result": ...,
// "status": 200} | {"error": "...", "status": N}, ...]} plus the optional
// "trace" — through one pooled buffered writer. Each result is that entry's
// /v1/match body, verbatim: its rendering (for a hit, the cached bytes)
// without the trailing newline, written in one piece.
func writeBatch(w io.Writer, entries []batchEntry, traceJSON []byte) error {
	bw := batchWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil) // a pooled writer must not pin the response
		batchWriters.Put(bw)
	}()
	bw.WriteString("{\n  \"results\": [")
	for i, e := range entries {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n    {\n      \"")
		bw.WriteString(e.field)
		bw.WriteString("\": ")
		bw.Write(bytes.TrimSuffix(e.value, []byte("\n")))
		bw.WriteString(",\n      \"status\": ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(e.status), 10))
		bw.WriteString("\n    }")
	}
	bw.WriteString("\n  ]")
	if traceJSON != nil {
		bw.WriteString(",\n  \"trace\": ")
		bw.Write(traceJSON)
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

type rewriteRequestJSON struct {
	Personal    string            `json:"personal"`
	Query       string            `json:"query"`
	MappingRank int               `json:"mapping_rank,omitempty"` // 0 = best mapping
	Options     *matchOptionsJSON `json:"options,omitempty"`
}

func (s *server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "POST required"})
		return
	}
	var req rewriteRequestJSON
	if !s.decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "query is required"})
		return
	}
	// The mapping's nodes must be rewritten by the same generation's index.
	ref := s.acquire()
	defer ref.release()
	svc := ref.backend
	personal, rep, status, err := runMatch(r.Context(), matchRequestJSON{Personal: req.Personal, Options: req.Options}, svc.Match)
	if err != nil {
		writeJSON(w, status, errorJSON{Error: err.Error()})
		return
	}
	if req.MappingRank < 0 || req.MappingRank >= len(rep.Mappings) {
		writeJSON(w, http.StatusNotFound, errorJSON{
			Error: fmt.Sprintf("mapping rank %d not available (%d mappings found)", req.MappingRank, len(rep.Mappings)),
		})
		return
	}
	mp := rep.Mappings[req.MappingRank]
	rewritten, err := svc.RewriteQuery(req.Query, personal, mp)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"query":        req.Query,
		"rewritten":    rewritten,
		"mapping_rank": req.MappingRank,
		"delta":        mp.Score.Delta,
	})
}

type repositoryRequestJSON struct {
	Action string `json:"action"` // synthetic|load|save
	Nodes  int    `json:"nodes,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Path   string `json:"path,omitempty"`
}

func (s *server) repositoryInfo() map[string]any {
	ref := s.acquire()
	defer ref.release()
	st := ref.backend.RepositoryStats()
	return map[string]any{
		"source": ref.desc,
		"trees":  st.Trees,
		"nodes":  st.Nodes,
		"shards": ref.backend.NumShards(),
	}
}

func (s *server) handleRepository(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.repositoryInfo())
	case http.MethodPost:
		// Every mutating action needs the -data-dir opt-in: without it,
		// any client could silently replace the served repository (or
		// force an enormous index build) with one unauthenticated POST.
		if s.dataDir == "" {
			writeJSON(w, http.StatusForbidden, errorJSON{Error: "repository mutation disabled; start the server with -data-dir"})
			return
		}
		var req repositoryRequestJSON
		if !s.decode(w, r, &req) {
			return
		}
		switch req.Action {
		case "synthetic":
			const maxSyntheticNodes = 1_000_000
			if req.Nodes < 0 || req.Nodes > maxSyntheticNodes {
				writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("nodes %d outside [0,%d]", req.Nodes, maxSyntheticNodes)})
				return
			}
			cfg := bellflower.DefaultSyntheticConfig()
			if req.Nodes > 0 {
				cfg.TargetNodes = req.Nodes
			}
			cfg.Seed = req.Seed
			repo, err := bellflower.Synthetic(cfg)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
				return
			}
			s.swap(repo, fmt.Sprintf("synthetic(%d,seed=%d)", cfg.TargetNodes, cfg.Seed))
		case "load":
			path, status, err := s.resolveDataPath(req.Path)
			if err != nil {
				writeJSON(w, status, errorJSON{Error: err.Error()})
				return
			}
			f, err := os.Open(path)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
				return
			}
			repo, err := bellflower.LoadRepository(f)
			f.Close()
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
				return
			}
			s.swap(repo, req.Path)
		case "save":
			path, status, err := s.resolveDataPath(req.Path)
			if err != nil {
				writeJSON(w, status, errorJSON{Error: err.Error()})
				return
			}
			f, err := os.Create(path)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
				return
			}
			// Save the repository the backend was built from.
			ref := s.acquire()
			err = bellflower.SaveRepository(f, ref.repo)
			ref.release()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
				return
			}
		default:
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("unknown action %q (want synthetic|load|save)", req.Action)})
			return
		}
		writeJSON(w, http.StatusOK, s.repositoryInfo())
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "GET or POST required"})
	}
}

// buildInfoJSON is the /v1/stats build block: enough provenance to tell
// WHICH binary produced a stats snapshot.
type buildInfoJSON struct {
	GoVersion   string `json:"go_version"`
	Path        string `json:"path,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// readBuildInfo extracts the build block once; the result never changes
// over the process lifetime.
var readBuildInfo = sync.OnceValue(func() buildInfoJSON {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return buildInfoJSON{}
	}
	out := buildInfoJSON{
		GoVersion: bi.GoVersion,
		Path:      bi.Main.Path,
		Version:   bi.Main.Version,
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out.VCSRevision = kv.Value
		case "vcs.time":
			out.VCSTime = kv.Value
		case "vcs.modified":
			out.VCSModified = kv.Value == "true"
		}
	}
	return out
})

func (s *server) uptimeSeconds() float64 {
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start).Seconds()
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	ref := s.acquire()
	defer ref.release()
	// Single-shard servers keep the flat historical shape (plus the uptime
	// and build keys); sharded servers report the rollup plus the per-shard
	// breakdown. Snapshot takes both together, so the shard-derived fields
	// of total always equal the sum of the shards; router-level work — the
	// candidate pre-pass, the router's own cache hits and above-the-shards
	// rejections — appears only in the total.
	total, shards := ref.backend.Snapshot()
	if ref.backend.NumShards() == 1 {
		writeJSON(w, http.StatusOK, struct {
			bellflower.ServiceStats
			UptimeSeconds float64       `json:"uptime_seconds"`
			Build         buildInfoJSON `json:"build"`
		}{total, s.uptimeSeconds(), readBuildInfo()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":          total,
		"shards":         shards,
		"uptime_seconds": s.uptimeSeconds(),
		"build":          readBuildInfo(),
	})
}

// handleTraces serves GET /v1/traces: the bounded ring of recent trace
// summaries plus the separate slow ring (requests at or above -slow-ms).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeTraces(w, r, s.rec)
}

func writeTraces(w http.ResponseWriter, r *http.Request, rec *bellflower.TraceRecorder) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "GET required"})
		return
	}
	if rec == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"recent": []bellflower.TraceSummary{},
			"slow":   []bellflower.TraceSummary{},
		})
		return
	}
	recent, slow := rec.Recent(), rec.Slow()
	if recent == nil {
		recent = []bellflower.TraceSummary{}
	}
	if slow == nil {
		slow = []bellflower.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"slow_threshold_ms": float64(rec.Threshold()) / float64(time.Millisecond),
		"recent":            recent,
		"slow":              slow,
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ref := s.acquire()
	defer ref.release()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := bellflower.WritePrometheusMetrics(w, ref.backend); err != nil {
		s.logger.Error("metrics write failed", "error", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
