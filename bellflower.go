// Package bellflower is a clustered XML schema matching library — an
// open-source reproduction of "Using Element Clustering to Increase the
// Efficiency of XML Schema Matching" (Smiljanić, van Keulen, Jonker;
// ICDE 2006) and of its experimental system, Bellflower.
//
// Schema matching discovers semantic mappings between a small personal
// schema and a large repository of schema trees. The search space of
// candidate mappings grows exponentially with the personal schema size, so
// Bellflower inserts a k-means clustering step between element matching and
// mapping generation: the repository candidates are partitioned into
// regions (clusters) and the Branch & Bound mapping generator runs per
// cluster, trading a controlled loss of low-ranked mappings for a large
// efficiency gain.
//
// # Quick start
//
//	repo := bellflower.NewRepository()
//	tree, _ := bellflower.ParseSchema("lib(address,book(authorName,data(title),shelf))")
//	repo.MustAdd(tree)
//
//	m := bellflower.NewMatcher(repo)
//	personal, _ := bellflower.ParseSchema("book(title,author)")
//	report, _ := m.Match(personal, bellflower.DefaultOptions())
//	for _, mp := range report.Mappings {
//	    fmt.Println(bellflower.FormatMapping(personal, mp))
//	}
//
// Repositories can also be ingested from XSD and DTD files (ParseXSD,
// ParseDTD) or generated synthetically at the paper's experimental scale
// (Synthetic). Discovered mappings can rewrite personal-schema XPath
// queries into repository queries (Matcher.RewriteQuery), completing the
// personal-schema-querying workflow the paper's introduction motivates.
//
// # Serving
//
// For many users sharing one indexed repository, NewService wraps a
// Matcher's pipeline in a long-lived concurrent matching service: match
// requests flow through a bounded worker pool, identical in-flight
// requests are deduplicated into one pipeline run, and completed reports
// are cached in an LRU keyed by the canonical request signature. Requests
// honour context deadlines and cancellation end to end.
//
//	svc := bellflower.NewService(repo, bellflower.ServiceConfig{Workers: 8})
//	defer svc.Close()
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	report, err := svc.Match(ctx, personal, bellflower.DefaultOptions())
//	stats := svc.Stats() // cache hits, dedupe, queue depth, latency histogram
//
// To scale beyond one worker pool, NewShardedService partitions the
// repository into shards — by default co-locating trees with overlapping
// vocabulary (candidate matching is per-tree and clusters never span
// schema trees, so partitioning loses no candidate mappings) — runs one
// Service per shard and fans each request out across all of them, merging
// the per-shard ranked lists into one global top-N report. Shards are
// views over a single shared labelling index, so index memory stays one
// full-repository copy regardless of shard count, and all caches answer
// to one byte-budget memory governor. The router answers repeated requests
// from its own report cache without asking any shard; for the rest, a
// shared pre-pass runs element matching and clustering once against the
// full repository and hands each shard its projection, so the merged
// report is exactly the unsharded one for every clustering variant and the
// cold path pays the quadratic matching stage once.
//
// The same services back the bellflower-server HTTP daemon
// (cmd/bellflower-server), which exposes /v1/match, /v1/match/batch,
// /v1/rewrite, /v1/repository, /v1/stats and /healthz as JSON endpoints
// plus Prometheus-format metrics at /metrics; examples/server is a client
// for it.
package bellflower

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/cost"
	"bellflower/internal/dtd"
	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/pipeline"
	"bellflower/internal/query"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
	"bellflower/internal/shardrpc"
	"bellflower/internal/trace"
	"bellflower/internal/xmldoc"
	"bellflower/internal/xsd"
)

// Core data model, re-exported from the internal packages so library users
// need only this import.
type (
	// Tree is a rooted labelled schema tree (personal schema or one
	// repository schema).
	Tree = schema.Tree

	// Node is a schema element or attribute.
	Node = schema.Node

	// Repository is a forest of schema trees.
	Repository = schema.Repository

	// Mapping is a discovered schema mapping s ↦ t with its decomposed
	// objective score.
	Mapping = mapgen.Mapping

	// PartialMapping covers only part of the personal schema (found in
	// non-useful clusters when Options.IncludePartials is set).
	PartialMapping = mapgen.PartialMapping

	// Report is the instrumented result of a Match run: the ranked
	// mappings plus the efficiency counters the paper's tables report.
	Report = pipeline.Report

	// ShardError records one shard's failure inside a Report marked
	// Incomplete by the partial-results fan-out.
	ShardError = pipeline.ShardError

	// Options configures a Match run; see DefaultOptions.
	Options = pipeline.Options

	// Variant selects the clustering configuration (VariantSmall /
	// VariantMedium / VariantLarge / VariantTree).
	Variant = pipeline.Variant

	// ObjectiveParams holds α (name vs path weight) and K (path
	// normalization) of the objective function.
	ObjectiveParams = objective.Params

	// ClusterConfig tunes the adapted k-means clusterer.
	ClusterConfig = cluster.Config

	// SyntheticConfig controls synthetic repository generation.
	SyntheticConfig = repogen.Config

	// ElementMatcher scores the similarity of two schema elements from
	// local properties; see NameMatcher, SynonymMatcher and TypeMatcher
	// in this package's constructors.
	ElementMatcher = matcher.Matcher

	// CostModel predicts clustered-matching cost from calibrated unit
	// costs (the paper's future-work cost model).
	CostModel = cost.Model

	// CostProblem describes a matching problem's size parameters for the
	// cost model.
	CostProblem = cost.Problem

	// Service is a long-lived concurrent matching service over one
	// indexed repository: bounded worker pool, in-flight request
	// deduplication, LRU report cache; see NewService.
	Service = serve.Service

	// ShardedService fans match requests out across repository shards (one
	// Service per partition) and merges the per-shard ranked lists into one
	// global report; see NewShardedService.
	ShardedService = serve.Router

	// ServiceBackend is the serving surface shared by Service and
	// ShardedService, letting embedders treat single-shard and sharded
	// deployments interchangeably.
	ServiceBackend = serve.Backend

	// ServiceConfig sizes a Service (workers, queue depth, cache size,
	// schema-size guard, default timeout).
	ServiceConfig = serve.Config

	// PartitionStrategy selects how NewShardedService distributes
	// repository trees across shards (PartitionBalanced /
	// PartitionClustered).
	PartitionStrategy = serve.PartitionStrategy

	// ServiceStats is a snapshot of a Service's instrumentation: cache
	// hits, in-flight dedupe, queue depth and the latency histogram.
	ServiceStats = serve.Stats

	// ShardBackend is the narrow per-shard serving surface a
	// ShardedService fans out over — implemented by Service (in-process
	// shards) and by the remote shard client behind NewDistributedService.
	ShardBackend = serve.ShardBackend

	// ShardHost hosts one shard of a deterministically partitioned
	// repository for remote serving: its HandleMatch / HandleStats methods
	// are the /v1/shard/match and /v1/shard/stats endpoints of
	// bellflower-server's -shard-of mode. See NewShardHost.
	ShardHost = shardrpc.ShardServer

	// RequestTrace is one request's span collection; see StartRequestTrace.
	RequestTrace = trace.Trace

	// TraceSpan is one timed operation inside a RequestTrace.
	TraceSpan = trace.Span

	// TraceNode is one node of a rendered span tree (TraceSummary.Tree).
	TraceNode = trace.Node

	// TraceSummary is a finished trace rendered for transport: trace ID,
	// total duration and the span tree.
	TraceSummary = trace.Summary

	// TraceRecorder is a bounded in-memory ring of recent (and slow)
	// request traces, summarized when read; see NewTraceRecorder.
	TraceRecorder = trace.Recorder
)

// Service sentinel errors, for errors.Is.
var (
	// ErrServiceClosed is returned by Service.Match after Close.
	ErrServiceClosed = serve.ErrClosed

	// ErrSchemaTooLarge is wrapped in errors for personal schemas larger
	// than ServiceConfig.MaxSchemaNodes, and — by Matcher.Match too — for
	// ones beyond the pipeline's fixed 64-node bound.
	ErrSchemaTooLarge = serve.ErrSchemaTooLarge
)

// Shard partition strategies for NewShardedService.
const (
	// PartitionBalanced distributes trees by node count alone: near-equal
	// shard loads, but vocabularies scatter across shards.
	PartitionBalanced = serve.PartitionBalanced
	// PartitionClustered (the default) co-locates trees with overlapping
	// label vocabularies, shrinking per-shard candidate sets; load balance
	// is bounded by a 2× average-load cap.
	PartitionClustered = serve.PartitionClustered
)

// ParsePartitionStrategy converts "balanced" or "clustered" to a
// PartitionStrategy, for flag wiring.
func ParsePartitionStrategy(s string) (PartitionStrategy, error) {
	return serve.ParsePartitionStrategy(s)
}

// Clustering variants (Sec. 5 of the paper).
const (
	// VariantTree is the non-clustered baseline: each repository tree is
	// one cluster.
	VariantTree = pipeline.VariantTree
	// VariantSmall joins clusters whose medoids are within distance 2.
	VariantSmall = pipeline.VariantSmall
	// VariantMedium joins within distance 3 (the paper's default).
	VariantMedium = pipeline.VariantMedium
	// VariantLarge joins within distance 4.
	VariantLarge = pipeline.VariantLarge
)

// NewRepository returns an empty schema repository.
func NewRepository() *Repository { return schema.NewRepository() }

// ParseSchema builds a tree from the compact spec syntax, e.g.
// "book(title,author(first,last),isbn@)". A trailing '@' marks attributes
// and ':type' declares datatypes.
func ParseSchema(spec string) (*Tree, error) { return schema.ParseSpec(spec) }

// MustParseSchema is ParseSchema but panics on error.
func MustParseSchema(spec string) *Tree { return schema.MustParseSpec(spec) }

// ParseXSD reads an XML Schema document and returns its trees, one per
// top-level element declaration.
func ParseXSD(r io.Reader) ([]*Tree, error) { return xsd.Parse(r) }

// ParseDTD reads a DTD document and returns its trees, one per root
// element.
func ParseDTD(r io.Reader) ([]*Tree, error) { return dtd.Parse(r) }

// InferSchema infers a schema tree from an XML instance document, merging
// repeated sibling elements into single declarations.
func InferSchema(r io.Reader) (*Tree, error) { return xmldoc.Infer(r) }

// WriteXSD serializes schema trees as one XML Schema document — the
// inverse of ParseXSD for the supported subset (attributes sort before
// element children on round trip).
func WriteXSD(w io.Writer, trees ...*Tree) error { return xsd.Write(w, trees...) }

// SaveRepository serializes a repository in a compact line-oriented text
// format that loads much faster than re-parsing schema files.
func SaveRepository(w io.Writer, r *Repository) error { return schema.WriteRepository(w, r) }

// LoadRepository reads a repository written by SaveRepository.
func LoadRepository(r io.Reader) (*Repository, error) { return schema.ReadRepository(r) }

// NewStructureMatcher returns a structural context matcher for two-phase
// matching (Options.StructureMatcher): kind is "path" (root-path context),
// "child" (immediate child names) or "leaf" (subtree leaf names).
func NewStructureMatcher(kind string) (ElementMatcher, error) {
	switch kind {
	case "path":
		return matcher.PathContextMatcher{}, nil
	case "child":
		return matcher.ChildContextMatcher{}, nil
	case "leaf":
		return matcher.LeafContextMatcher{}, nil
	default:
		return nil, fmt.Errorf("bellflower: unknown structure matcher %q (want path|child|leaf)", kind)
	}
}

// CalibrateCostModel fits the cost model's unit costs from a measured run:
// typically a Report's ClusterTime/GenTime with the problem's clustering
// op count and partial-mapping counter.
func CalibrateCostModel(clusterSeconds, clusterOps, genSeconds, partials float64) (CostModel, error) {
	return cost.Calibrate(clusterSeconds, clusterOps, genSeconds, partials)
}

// Synthetic generates a reproducible synthetic repository; see
// DefaultSyntheticConfig for the paper's experimental scale.
func Synthetic(cfg SyntheticConfig) (*Repository, error) { return repogen.Generate(cfg) }

// DefaultSyntheticConfig mirrors the paper's reference repository: 9759
// nodes over a few hundred trees with realistic vocabulary overlap and
// naming noise.
func DefaultSyntheticConfig() SyntheticConfig { return repogen.DefaultConfig() }

// DefaultOptions mirrors the paper's reference experiment: δ = 0.75,
// α = 0.5, K = 4, medium clusters.
func DefaultOptions() Options { return pipeline.DefaultOptions() }

// NewNameMatcher returns the paper-faithful fuzzy name matcher
// (CompareStringFuzzy); tokenAware additionally credits reordered compound
// names.
func NewNameMatcher(tokenAware bool) ElementMatcher {
	return matcher.NameMatcher{TokenAware: tokenAware}
}

// NewSynonymMatcher returns a dictionary matcher over the given synonym
// groups plus a built-in general-purpose dictionary.
func NewSynonymMatcher(groups ...[]string) ElementMatcher {
	m := matcher.DefaultSynonyms()
	for _, g := range groups {
		m.AddGroup(g...)
	}
	return m
}

// NewTypeMatcher returns a datatype-compatibility matcher.
func NewTypeMatcher() ElementMatcher { return matcher.TypeMatcher{} }

// NewCombinedMatcher merges matchers with the given weights (weighted
// average), the combining technique of COMA/LSD.
func NewCombinedMatcher(matchers []ElementMatcher, weights []float64) (ElementMatcher, error) {
	if len(matchers) != len(weights) || len(matchers) == 0 {
		return nil, fmt.Errorf("bellflower: %d matchers, %d weights", len(matchers), len(weights))
	}
	parts := make([]matcher.Weighted, len(matchers))
	for i := range matchers {
		if weights[i] < 0 {
			return nil, fmt.Errorf("bellflower: negative weight %v", weights[i])
		}
		parts[i] = matcher.Weighted{Matcher: matchers[i], Weight: weights[i]}
	}
	return matcher.NewCombined(parts...), nil
}

// NewService indexes the repository and starts a concurrent matching
// service around it; see the Serving section of the package documentation.
// Release it with Service.Close.
func NewService(repo *Repository, cfg ServiceConfig) *Service {
	return serve.NewFromRepository(repo, cfg)
}

// NewShardedService partitions the repository into up to shards partitions
// with the default vocabulary-clustered strategy and returns a router that
// fans every match request out across the shards concurrently, merging the
// ranked lists into one global top-N report — exactly the unsharded result
// for every clustering variant (see the serve.Router documentation).
// Shards are lightweight VIEWS over one shared labelling index — the
// repository is indexed exactly once regardless of the shard count; a
// shard is a set of member trees plus an ID translation, not a cloned
// sub-repository (candidate matching is per-tree and clusters never span
// trees, so partitioning loses no candidate mappings). With
// cfg.Workers == 0 the per-shard worker pools split GOMAXPROCS between
// them, keeping the default total worker budget equal to an unsharded
// NewService.
//
// The router answers a repeated request from its own cache of merged
// reports, asking no shard. Any other request runs a shared pre-pass: the
// cold-path element matching and clustering execute once against the full
// repository and are projected onto each shard, so shards run only mapping
// generation. Cache memory — every shard's report cache plus the router's
// — is governed by one byte budget (ServiceConfig.CacheBytes), and
// ServiceConfig.PartialResults opts into merging partially failed
// fan-outs as Incomplete reports instead of failing them.
//
// shards values below 1 (and above the tree count) are clamped; a one-shard
// router behaves exactly like a plain Service. Release it with Close.
func NewShardedService(repo *Repository, shards int, cfg ServiceConfig) *ShardedService {
	return serve.NewRouterFromRepository(repo, shards, cfg)
}

// NewShardedServicePartitioned is NewShardedService with an explicit shard
// partition strategy (PartitionBalanced or PartitionClustered).
func NewShardedServicePartitioned(repo *Repository, shards int, cfg ServiceConfig, strategy PartitionStrategy) *ShardedService {
	return serve.NewRouterWithPartition(repo, shards, cfg, strategy)
}

// NewShardHost builds the serving side of one DISTRIBUTED shard: the
// repository is partitioned deterministically into shards views with the
// given strategy — exactly as the router process partitions its own copy —
// and shard (0-based) is hosted by a view-backed Service behind the shard
// wire protocol. Mount the host's HandleMatch and HandleStats handlers (or
// run bellflower-server -shard-of SHARD/SHARDS) and point
// NewDistributedService at the address. Release with ShardHost.Close.
//
// The shard's worker pool is sized by cfg alone (default GOMAXPROCS): a
// shard host is assumed to own its process, unlike in-process shards that
// split one budget.
func NewShardHost(repo *Repository, shard, shards int, cfg ServiceConfig, strategy PartitionStrategy) (*ShardHost, error) {
	if shards < 1 {
		return nil, fmt.Errorf("bellflower: shard count %d must be at least 1", shards)
	}
	ix := labeling.NewIndex(repo)
	views := serve.PartitionRepositoryViews(ix, shards, strategy)
	if len(views) != shards {
		return nil, fmt.Errorf("bellflower: repository has %d trees, too few for %d shards (at most one shard per tree)", repo.NumTrees(), shards)
	}
	if shard < 0 || shard >= len(views) {
		return nil, fmt.Errorf("bellflower: shard index %d outside [0,%d)", shard, len(views))
	}
	v := views[shard]
	// The host process holds the full repository anyway (views are windows
	// over it), so it builds the full name-similarity index once; the view
	// runner's vocabulary is grouped from the shard's own node universe.
	svc := serve.New(pipeline.NewViewRunnerWithNameIndex(v, matcher.NewNameIndex(repo)), cfg)
	return shardrpc.NewShardServer(svc, v, shardrpc.ViewDescriptor(v, shard, len(views), strategy)), nil
}

// NewDistributedService builds a sharded service whose shards live in
// OTHER processes: the repository (the same file or synthetic seed the
// shard servers loaded) is partitioned into len(shardAddrs) views, shard i
// is served by the bellflower-server -shard-of i/n process(es) at
// shardAddrs[i], and every match request its report cache cannot answer
// runs the shared pre-pass locally — element matching and clustering once
// against the full repository — then ships each shard its candidate
// projection and clusters over the wire (view-local node IDs). Merged
// reports are byte-identical to an unsharded run, exactly like the
// in-process NewShardedService.
//
// Each shardAddrs entry may name several REPLICAS of that shard separated
// by '|' ("hostA:8081|hostB:8081"): identical -shard-of i/n processes the
// router load-balances across (round-robin over the healthy ones) and
// fails over between mid-request on transport errors — one replica dying
// yields a complete report, not an Incomplete one. Every replica carries
// a background health monitor (cfg.HealthInterval probes with
// cfg.HealthFailures consecutive-failure mark-down; recovery is
// re-admitted only after a probe re-verifies the descriptor handshake),
// and under cfg.PartialResults a shard whose replicas are ALL unhealthy
// is skipped without paying a per-request timeout.
//
// Every shard is health-checked at construction: a replica answering with
// a DIFFERENT descriptor (wrong -shard-of index, different partition
// strategy or repository) always fails — that topology would return wrong
// mappings. A shard with NO reachable replica fails under strict routing,
// but with cfg.PartialResults it is tolerated: requests are served from
// the live shards as Incomplete reports until a replica returns (replicas
// unreachable at construction start marked unhealthy). Per-request, shard
// failures feed the same partial-results machinery (Report.Incomplete,
// ShardErrors, per-shard metrics).
//
// cfg.DefaultTimeout doubles as the per-replica request attempt timeout.
// Release with Close — which stops the monitors and releases the clients,
// never the remote servers.
func NewDistributedService(repo *Repository, shardAddrs []string, cfg ServiceConfig, strategy PartitionStrategy) (*ShardedService, error) {
	if len(shardAddrs) == 0 {
		return nil, errors.New("bellflower: NewDistributedService needs at least one shard address")
	}
	ix := labeling.NewIndex(repo)
	views := serve.PartitionRepositoryViews(ix, len(shardAddrs), strategy)
	if len(views) != len(shardAddrs) {
		return nil, fmt.Errorf("bellflower: %d shard servers for a repository of %d trees (at most one shard per tree)", len(shardAddrs), repo.NumTrees())
	}
	hcfg := serve.HealthConfig{
		Interval:         cfg.HealthInterval,
		FailureThreshold: cfg.HealthFailures,
	}
	backends := make([]serve.ShardBackend, len(views))
	groups := make([]*shardrpc.ReplicaSet, len(views))
	descs := shardrpc.ViewDescriptors(views, strategy)
	for i, v := range views {
		addrs := strings.Split(shardAddrs[i], "|")
		replicas := make([]*shardrpc.RemoteShard, 0, len(addrs))
		for _, addr := range addrs {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("bellflower: shard %d: empty replica address in %q", i, shardAddrs[i])
			}
			replicas = append(replicas, shardrpc.NewRemoteShard(addr, v, descs[i],
				shardrpc.RemoteShardConfig{Timeout: cfg.DefaultTimeout}))
		}
		groups[i] = shardrpc.NewReplicaSet(replicas, hcfg)
		backends[i] = groups[i]
	}
	// Health-check every shard CONCURRENTLY under one deadline: a shard
	// that hangs must not eat the others' budget — a reachable but
	// misconfigured shard has the full window to answer, so a descriptor
	// mismatch is never misread as mere unreachability. The window follows
	// the operator's request timeout when that is the longer of the two
	// (a shard slow to come up deserves the same patience as a request).
	window := 5 * time.Second
	if cfg.DefaultTimeout > window {
		window = cfg.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	checkErrs := make([]error, len(groups))
	var wg sync.WaitGroup
	wg.Add(len(groups))
	for i, g := range groups {
		go func(i int, g *shardrpc.ReplicaSet) {
			defer wg.Done()
			checkErrs[i] = g.Check(ctx)
		}(i, g)
	}
	wg.Wait()
	for _, err := range checkErrs {
		if err == nil {
			continue
		}
		if errors.Is(err, shardrpc.ErrDescriptorMismatch) || !cfg.PartialResults {
			return nil, err
		}
		// Unreachable but tolerated: partial-results mode serves Incomplete
		// reports from the healthy shards until a replica returns.
	}
	if cfg.HealthInterval >= 0 {
		for _, g := range groups {
			g.StartHealth()
		}
	}
	return serve.NewRouterWithShardBackends(ix, views, backends, cfg), nil
}

// Matcher runs clustered schema matching against a fixed repository. It
// precomputes the node-labelling index once; Match calls reuse it.
//
// A Matcher is safe for concurrent use: any number of goroutines may call
// Match, MatchContext and RewriteQuery at once.
type Matcher struct {
	runner *pipeline.Runner
}

// NewMatcher indexes the repository and returns a Matcher.
func NewMatcher(repo *Repository) *Matcher {
	return &Matcher{runner: pipeline.NewRunner(repo)}
}

// Repository returns the matcher's repository.
func (m *Matcher) Repository() *Repository { return m.runner.Repository() }

// Match runs the full pipeline — element matching, clustering, per-cluster
// Branch & Bound mapping generation — and returns the instrumented report
// with the ranked mappings.
func (m *Matcher) Match(personal *Tree, opts Options) (*Report, error) {
	return m.runner.Run(personal, opts)
}

// MatchContext is Match bounded by a context: the run honours ctx's
// deadline and cancellation, stopping early between pipeline stages and
// clusters.
func (m *Matcher) MatchContext(ctx context.Context, personal *Tree, opts Options) (*Report, error) {
	return m.runner.RunContext(ctx, personal, opts)
}

// Serve starts a concurrent matching service sharing this Matcher's
// repository index (no re-indexing); see NewService.
func (m *Matcher) Serve(cfg ServiceConfig) *Service {
	return serve.New(m.runner, cfg)
}

// RewriteQuery translates an XPath query over the personal schema (e.g.
// /book[title="Iliad"]/author) into a query over the repository schema,
// using a mapping discovered by Match.
func (m *Matcher) RewriteQuery(q string, personal *Tree, mp Mapping) (string, error) {
	parsed, err := query.Parse(q)
	if err != nil {
		return "", err
	}
	return query.Rewrite(parsed, personal, mp, m.runner.Index())
}

// StartRequestTrace opens a new request trace: the returned context carries
// the trace and its root span, so every pipeline and serving stage
// downstream records spans into it (a context without a trace records
// nothing, at no cost). End the root span before summarizing.
func StartRequestTrace(ctx context.Context, name string) (context.Context, *RequestTrace, *TraceSpan) {
	return trace.New(ctx, name)
}

// StartTraceSpan opens one child span on the context's trace; the returned
// span is nil-safe — if ctx carries no trace, End and SetAttr are no-ops.
func StartTraceSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	return trace.StartSpan(ctx, name)
}

// NewTraceRecorder builds a bounded ring of recent traces plus a separate
// ring for traces whose root span took at least slowThreshold (0 disables
// slow capture). Non-positive caps select the defaults (64 recent, 32
// slow). A trace's summary is built when the ring is read, so it includes
// spans that ended after the request did. The recorder backs
// bellflower-server's /v1/traces endpoint.
func NewTraceRecorder(recentCap, slowCap int, slowThreshold time.Duration) *TraceRecorder {
	return trace.NewRecorder(recentCap, slowCap, slowThreshold)
}

// WritePrometheusMetrics renders a serving backend's stats snapshot in the
// Prometheus text exposition format — the payload behind the
// bellflower-server /metrics endpoint: the rolled-up metrics, plus
// per-shard series labelled {shard="N"} when the backend fans out. The
// metric names are documented in the project README.
func WritePrometheusMetrics(w io.Writer, b ServiceBackend) error {
	total, shards := b.Snapshot()
	return serve.WritePrometheusSnapshot(w, total, shards)
}

// AppendMatchTraceJSON appends body — a match response rendered by
// ServiceBackend.MatchJSON — with the request's span tree spliced in as its
// last field, "trace": what bellflower-server answers under ?trace=1.
func AppendMatchTraceJSON(dst, body []byte, sum *TraceSummary) ([]byte, error) {
	return serve.AppendTraceJSON(dst, body, sum)
}

// FormatMapping renders a mapping as "personal ↦ repository" pairs with the
// similarity index, e.g.:
//
//	Δ=0.93  book→/lib/book  title→/lib/book/data/title  author→/lib/book/authorName
func FormatMapping(personal *Tree, m Mapping) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Δ=%.3f ", m.Score.Delta)
	for i, n := range personal.Nodes() {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s→%s", n.Name, m.Images[i].PathString())
	}
	return b.String()
}

// FormatSchema renders a tree as an indented outline for inspection.
func FormatSchema(t *Tree) string { return schema.FormatIndented(t) }
