// Package cluster implements the paper's contribution: the clustering step
// inserted between element matching and mapping generation (Fig. 3, Alg. 1).
//
// Mapping elements (repository nodes that are a candidate for at least one
// personal-schema node) are partitioned into clusters with an adapted
// k-means algorithm:
//
//   - centroids are medoids — actual mapping elements at the cluster's
//     center of weight: the member with the smallest sum of tree distances
//     to all members, exactly, ties to the lowest Node.ID;
//   - the distance measure is the tree distance (path length), computed in
//     O(1) via the labeling package;
//   - centroids are seeded from MEmin, the smallest candidate set, so that
//     every initial centroid marks a region that can possibly deliver a
//     useful cluster;
//   - a reclustering step runs inside each iteration: join merges clusters
//     whose medoids are within a distance threshold, remove deletes tiny
//     clusters (their elements are free to join neighbours in the next
//     iteration), and split (an extension, Sec. 4 "huge clusters") breaks
//     up oversized clusters;
//   - the algorithm terminates when fewer than a stability fraction of
//     elements switch clusters and the cluster count is stable, or after
//     MaxIterations.
//
// Agglomerative single-linkage clustering (Agglomerative) is provided as an
// ablation alternative, and TreeClusters is the non-clustered baseline in
// which every repository tree forms one cluster. Because the tree distance
// between nodes of different trees is infinite, every cluster — under any
// of the three algorithms — contains elements of a single repository tree;
// the serve package's shard partitioning relies on this invariant.
//
// # The medoid kernel and the flat state
//
// All three algorithms take their medoids from one kernel,
// labeling.Index.Medoid: the members' auxiliary tree plus a two-pass
// rerooting gives every member's exact integer distance sum in O(m) after
// m−1 LCA lookups (O(m log m) if the members first need sorting), where the
// scan it replaced cost O(m²) lookups per cluster — half of all pipeline CPU
// on the serving default. The kernel is exact by contract, not by
// approximation: it equals an exhaustive scan with full sums on every
// input, which the property and fuzz suites pin. (The replaced scan also
// stopped summing early and then compared the truncated sum as if it were
// complete, choosing a non-minimal member in about a quarter of the larger
// clusters; the exhaustive reference in the tests has no early exit.)
//
// Everything is clustered over one element universe in document order —
// by tree, then by preorder position — so member lists are always in the
// order the kernel wants, the elements of a tree are one contiguous run,
// and clusters come out tree by tree. Document order is node-ID order
// (schema.Repository numbers each tree in preorder), so the universe is
// read off a bitmap of candidate IDs in one scan, without a sort, and each
// candidate finds its element by the rank of its bit. The k-means working
// state is flat arrays keyed by that order and lives in a sync.Pool: a warm
// run allocates only its Result (five allocations, pinned by a test). No
// step builds a map.
//
// # The seeded universe
//
// KMeans loads only the elements of trees that hold an MEmin candidate
// (Result.Loaded). This is exact, not a heuristic cut: every centroid is an
// MEmin element or grows from one inside its tree (join merges clusters of
// one tree, split halves one), so an element of any other tree is never
// assigned, never moves and ends in no cluster. Those elements are counted
// without being stored: the stop test's Stability × #elements and
// Result.Unassigned use the full count, so every result is what the full
// universe gives. On the paper-scale benchmark about 56% of the elements
// are loaded. TreeClusters and Agglomerative use every tree.
//
// # Assignment and the clean-cluster rule
//
// The universe in document order is also the input of its auxiliary forest
// (labeling.AuxForest): the elements plus the LCAs of document-adjacent
// elements of one tree, built once per run with m−1 LCA lookups. Every
// iteration's assignment is one multi-source nearest-centroid pass over that
// forest (AuxForest.Nearest): the medoids are the sources, a bottom-up and a
// top-down pass keep the smallest (distance, medoid node ID) per vertex, and
// each element's vertex then names its cluster — the pairwise loop's answer,
// tie rule included, with no distance query at all. Before this, every
// element paid one LCA lookup per centroid of its tree per iteration, the
// largest share of the stage.
//
// Medoids are recomputed only where members changed. rebuild knows each
// element's cluster from the previous iteration's member windows; a cluster
// every new member of which already belonged to it, and whose size is
// unchanged, has the same member set and so the same medoid, and the
// recompute step keeps it (Result.MedoidsKept). join's merged clusters and
// split's halves are new member sets and are always recomputed. Both rules
// are exact by construction; the reference suite, which recomputes every
// medoid and scans every centroid, pins them.
//
// Personal schemas are limited to MaxPersonalNodes (64) nodes, the width of
// Element.Mask; KMeans and Agglomerative return ErrSchemaTooLarge beyond it.
//
// # Concurrency
//
// KMeans, Agglomerative and TreeClusters are pure functions of their
// inputs: they read the immutable labelling index and candidate sets and
// return freshly allocated Result values — pooled working state never
// escapes a call — so any number of clustering runs may execute
// concurrently (the serve worker pools do exactly that). The returned
// clusters are not synchronized; treat a Result as owned by the goroutine
// that produced it or as read-only once shared. The clusters of one Result
// share backing arrays: appending to one cluster's Elements reallocates
// rather than overwriting a neighbour, but the arrays live as long as any
// cluster does.
package cluster
