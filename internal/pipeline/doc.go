// Package pipeline wires the full clustered schema matching architecture of
// Fig. 3: element matching (matcher) → clustering (cluster) → mapping
// generation over the useful clusters (mapgen) → one ranked list. It also exposes the
// non-clustered baseline (tree clusters) and collects the timing and counter
// instrumentation the experiments report.
//
// A Runner is the unit of reuse: it binds a repository to its labelling
// index once (the expensive O(N log N) build) and then executes any number
// of runs against it. Options selects the clustering variant, objective
// parameters, element matcher and the extensions (two-phase structural
// rescoring, cluster ordering, partial mappings).
//
// A Runner has two entry points: RunContext (Run) executes all three
// stages, and RunWithClusters executes generation only over candidates and
// clusters computed upstream — how a sharded router's shards, scoped to
// their views by NewViewRunnerWithNameIndex, consume the router's one
// global matching and clustering pass.
//
// The generation stage is one call into one search, on the calling
// goroutine (mapgen.GenerateTopNStop): a request with TopN > 0 runs the
// bounded top-N search, with or without a StructureMatcher; TopN == 0 —
// the set is the answer — runs the threshold search through the same
// entry. Both are the paper's Branch & Bound. Report.Counters
// describe the search that ran and are a function of the request alone.
// Mappings come back in mapgen.Rank order and partial mappings in
// mapgen.RankPartials order, both total orders over global node and
// cluster IDs, so a sharded router's merge reproduces this report exactly.
//
// # Concurrency
//
// A Runner is safe for concurrent use: the repository and labelling index
// are built by NewRunner and only read afterwards, and every Run /
// RunContext call keeps its working state (candidates, clusters, report) to
// itself — the serve package's worker pools depend on this. RunContext hands
// the storage of its candidate sets and clusters back to their pools
// (matcher.Candidates.Release, cluster.Result.Release) on its own goroutine
// once generation returns; the report keeps neither, so what a run leaves
// behind is its report.
// RunContext honours cancellation cooperatively: the context is checked
// between pipeline stages and, by the generation search, between clusters,
// so a cancelled run stops within one cluster's worth of work. Reports are
// owned by the caller; the pipeline retains no reference to them.
package pipeline
