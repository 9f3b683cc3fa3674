// Package mapgen implements the schema mapping generator (step ④ of the
// paper's architecture): it enumerates combinations of mapping elements
// within a cluster, scores them with the objective function, and returns
// every schema mapping with Δ(s,t) ≥ δ.
//
// The search is the paper's Branch & Bound (an adaptation of the scheme of
// Kreher & Stinson): it extends partial mappings in personal-schema
// preorder and prunes with an admissible bounding function, so it
// discovers exactly the mappings that enumerating the full search space
// (the O(|MEn|^|Ns|) baseline) would, while generating far fewer partial
// mappings. The number of partial mappings generated is the paper's
// machine-independent efficiency indicator (Tab. 1b). The enumeration
// itself lives only in the tests, as a reference that shares no code with
// the search (reference_test.go).
//
// One search runs every request (GenerateTopNStop; Generate,
// GenerateInCluster and GenerateTopN are thin entries into it), on the
// calling goroutine. A planning pass over the candidate sets decides each
// cluster's usefulness, search-space size, optimistic Δ upper bound and
// restricted candidate sets; the search then visits the clusters in turn
// with one depth-first search that prunes against a Δ-floor, stopping a
// level as soon as the bound over the mapped subtree as it stands falls
// below the floor (candidate sets are in descending similarity, so every
// later candidate is below it too). With n <= 0 the floor stays at δ and
// every mapping at or above it is returned — the threshold search. With
// n > 0 the floor starts at δ and rises to the N-th best Δ found so far,
// kept in a top-N heap; clusters are visited best-first by their bound
// (smaller search space first among equals), and late clusters are often
// skipped without being searched. The top-N list is handed back as a
// compact copy (Compact), so what a caller retains pins no search memory.
//
// Ranked lists from independent searches — per-shard lists when a
// repository is partitioned across several serve.Service instances — are
// combined with MergeRanked, which compares with Rank's own order; partial
// mappings are ordered by RankPartials.
//
// # The bound
//
// A partial mapping's optimistic Δ is α·(similarities so far + the best
// similarity of every unassigned node)/|Ns| + (1−α)·Δpath(|Et| + z), the
// subtree look-ahead. Admissible because (1) personal nodes are assigned in
// preorder, every pushed path starts at an image, so the pushed node set T
// is connected and |Et| = |T| − 1; (2) the remaining images are distinct
// nodes that are not images yet, so each of the z remaining personal nodes
// with no unused in-cluster candidate inside T adds a node, hence an edge,
// of its own; (3) Δpath never rises with |Et|. z is taken over T as it
// stands, node i included, for the cut-off before the push (|Es| at the
// root), and over the grown T, the new image used, for the test after it.
//
// The similarity part is summed in another order than the Δ it bounds and
// can come out a few ulps under it, so every prune site — cluster skip,
// cut-off, per-candidate test — goes through belowFloor (slack 1e-12).
//
// # Determinism
//
// GenerateTopNStop returns, for n > 0, results bit-identical — scores AND
// order — to exhaustive generation truncated to N. Three properties carry
// the proof: the floor never exceeds the Δ of the N-th best mapping under
// the full Rank total order (descending Δ, then cluster ID, then image node
// IDs), pruning rejects only a bound clearly below the floor (a computed
// bound is an upper bound only up to rounding: a strict "bound < floor"
// once dropped a mapping that tied the floor and out-ranked what was kept),
// and the heap keeps the first N mappings under that same total order.
// True top-N mappings are therefore never pruned, never rejected and never
// evicted; the final Rank pass fixes the order. The property and fuzz tests
// in equivalence_test.go and lookahead_test.go pin this equivalence against a
// test-local enumerator (reference_test.go) that shares no code with the
// search.
//
// The search is sequential, so every output is a function of the inputs:
// the mappings, and every counter — SearchSpace and UsefulClusters (from
// the planning pass, including clusters later skipped by bound),
// PartialMappings, CompleteMappings and the EngineStats skip and
// tightening figures.
//
// # Concurrency
//
// A Generator is immutable after New: search state (assignment arrays,
// the planner's restricted candidate sets, dense bitsets, the subtree
// tracker, result heap) lives in a sync.Pool, acquired per call, never on
// the Generator — so any number of goroutines may search through one
// Generator at once, and a warm acquire→search→release cycle allocates
// nothing (the AllocsPerRun pins in equivalence_test.go enforce this). One
// call never starts a goroutine. EngineStats is the one value shared by
// concurrent calls, and its counters are atomic. Clusters passed to the
// generator must be disjoint node sets, which every clustering Result in
// this codebase produces. The package-level helpers Rank, RankPartials,
// MergeRanked and Compact are pure functions over their arguments (the two
// Rank functions sort their argument in place).
package mapgen
