// Package labeling implements node labelling for constant-time structural
// queries over a schema repository: lowest common ancestor, tree distance
// (path length) and ancestor tests.
//
// The paper's Bellflower system "uses node labeling techniques [12] to
// provide low-cost computation of path lengths" because the k-means
// clustering distance measure is evaluated very often (Sec. 4). This package
// is that substrate: an Index is built once per repository in O(N log T)
// (T the largest tree) and answers Distance/LCA queries in O(1) with one
// range minimum over node IDs.
//
// Everything rests on the repository's numbering (schema.Repository): node
// IDs run tree by tree and, within a tree, in preorder, so node-ID order is
// document order and every subtree is one ID range starting at its root.
// NewIndex checks this in O(N). Then, for u < v in one tree, LCA(u, v) is
// the parent of the shallowest node with ID in (u, v] — that node is a child
// of the LCA on the path to v — and a sparse table over each node's rank in
// (depth, ID) order answers the minimum with two lookups, one more mapping
// the winning rank to its parent.
//
// On top of the tables sits the auxiliary forest (AuxForest) of a node list
// in document order (ascending IDs): the listed nodes plus the LCAs of
// adjacent ones, built with one stack and m−1 LCA lookups, in which path
// lengths are tree distances. Passes over its edges replace pairwise distance
// queries, and the clusterer's two kernels are such passes. Index.Medoid
// finds a member set's exact center of weight — the member minimizing the
// sum of tree distances to all members, ties to the lowest node ID — by
// rerooting distance sums over the members' forest, in O(m) plus the build
// for members in ascending ID order (O(m log m) otherwise), against O(m²)
// lookups for the pairwise scan. AuxForest.Nearest gives every vertex its
// nearest source (ties to the lowest node ID) in two linear passes; k-means
// assignment runs it over the forest of its element universe with the
// medoids as sources, once per iteration, instead of one distance query per
// (element, centroid) pair. Both always equal their pairwise scans.
//
// Beside the O(1) tables the index keeps a flat parent-ID array next to the
// depths (ParentDepth) for walks that visit a path node by node.
//
// For sharded serving, a View restricts one shared Index to a subset of the
// repository's trees: shards answer every structural query through the
// single resident index (member nodes are the repository's own node
// objects) and carry only a dense global↔local node-ID translation, so
// index memory stays one full-repository copy regardless of shard count.
// Index.MemoryBytes exposes the resident footprint for stats and
// benchmarks.
package labeling

import (
	"fmt"
	"math/bits"

	"bellflower/internal/schema"
)

// Index answers structural queries over one repository in O(1) after an
// O(N log T) build. The Index is immutable and safe for concurrent use.
type Index struct {
	repo *schema.Repository

	// Per node (indexed by Node.ID):
	depth  []int32 // node depth within its tree
	parent []int32 // parent node ID, -1 at a root
	tree   []int32 // owning tree ID

	// sparse[k][i] is the smallest key of the nodes with IDs i .. i+2^k−1,
	// a node's key being its rank in (depth, ID) order; byRank maps a rank
	// to that node's parent ID. Levels stop at the largest tree, because a
	// query window never leaves its tree.
	sparse [][]uint32
	byRank []int32
}

// NewIndex builds the labelling index for a repository. It panics if node-ID
// order is not document order, which schema.Repository guarantees.
func NewIndex(repo *schema.Repository) *Index {
	n := repo.Len()
	ix := &Index{
		repo:   repo,
		depth:  make([]int32, n),
		parent: make([]int32, n),
		tree:   make([]int32, n),
	}
	// One pass in ID order checks the numbering: every node's parent is on
	// the chain from its tree's root down to the node listed before it,
	// which holds exactly when each tree's IDs are consecutive and preorder.
	var chain []int32
	next := 0
	for _, t := range repo.Trees() {
		chain = chain[:0]
		for _, node := range t.Nodes() {
			id := int32(node.ID)
			p := int32(-1)
			if node.Parent() != nil {
				p = int32(node.Parent().ID)
				for len(chain) > 0 && chain[len(chain)-1] != p {
					chain = chain[:len(chain)-1]
				}
			}
			if node.ID != next || (p < 0) != (len(chain) == 0) {
				panic(fmt.Sprintf("labeling: NewIndex: node %v (ID %d) breaks document order", node, node.ID))
			}
			next++
			chain = append(chain, id)
			ix.depth[id] = int32(len(chain) - 1)
			ix.parent[id] = p
			ix.tree[id] = int32(t.ID)
		}
	}
	st := repo.Stats()

	// Counting sort by depth: ranks follow (depth, ID).
	at := make([]int32, st.MaxDepth+2)
	for _, d := range ix.depth {
		at[d+1]++
	}
	for d := 1; d < len(at); d++ {
		at[d] += at[d-1]
	}
	keys := make([]uint32, n)
	ix.byRank = make([]int32, n)
	for id, d := range ix.depth {
		keys[id] = uint32(at[d])
		ix.byRank[at[d]] = ix.parent[id]
		at[d]++
	}
	// A window (u, v] of one tree is at most MaxTree−1 IDs long.
	ix.sparse = make([][]uint32, max(1, bits.Len(uint(max(st.MaxTree-1, 0)))))
	ix.sparse[0] = keys
	for k := 1; k < len(ix.sparse); k++ {
		prev, half := ix.sparse[k-1], 1<<(k-1)
		row := make([]uint32, n-2*half+1)
		for i := range row {
			row[i] = min(prev[i], prev[i+half])
		}
		ix.sparse[k] = row
	}
	return ix
}

// lca returns the lowest common ancestor of nodes a and b of one tree and
// its depth: for a < b, the parent of the shallowest node with ID in (a, b],
// found as the smaller key of two overlapping power-of-two windows.
func (ix *Index) lca(a, b int32) (l, depth int32) {
	if a == b {
		return a, ix.depth[a]
	}
	if a > b {
		a, b = b, a
	}
	k := bits.Len32(uint32(b-a)) - 1
	row := ix.sparse[k]
	l = ix.byRank[min(row[a+1], row[b+1-1<<k])]
	return l, ix.depth[l]
}

// Repository returns the repository the index was built over.
func (ix *Index) Repository() *schema.Repository { return ix.repo }

// MemoryBytes estimates the index's resident bytes: the per-node label
// arrays and the sparse range-minimum table over node IDs. This is the
// figure sharding de-duplicates — serve stats and the throughput benchmark
// report it so a second full-repository copy cannot reappear unnoticed.
func (ix *Index) MemoryBytes() int64 {
	b := int64(len(ix.depth)+len(ix.parent)+len(ix.tree)+len(ix.byRank)) * 4
	for _, row := range ix.sparse {
		b += int64(len(row)) * 4
	}
	return b
}

// SameTree reports whether the two nodes belong to the same tree.
func (ix *Index) SameTree(a, b *schema.Node) bool {
	return ix.tree[a.ID] == ix.tree[b.ID]
}

// TreeID returns the tree ID of the node.
func (ix *Index) TreeID(n *schema.Node) int { return int(ix.tree[n.ID]) }

// TreeOfID is TreeID over a raw node ID.
func (ix *Index) TreeOfID(id int) int { return int(ix.tree[id]) }

// ParentDepth returns the index's own per-node parent-ID (-1 at a root) and
// depth arrays, read-only, for walks that visit a path node by node: the
// mapping search's paths are a few edges long, and climbing the deeper end
// until both meet beats an LCA query plus a chase through Node.Parent.
func (ix *Index) ParentDepth() (parent, depth []int32) { return ix.parent, ix.depth }

// LCA returns the lowest common ancestor of a and b in O(1). It panics if
// the nodes belong to different trees; call SameTree first when unsure.
func (ix *Index) LCA(a, b *schema.Node) *schema.Node {
	if ix.tree[a.ID] != ix.tree[b.ID] {
		panic(fmt.Sprintf("labeling: LCA(%v, %v): nodes in different trees", a, b))
	}
	return ix.repo.Node(ix.lcaID(a.ID, b.ID))
}

func (ix *Index) lcaID(a, b int) int {
	l, _ := ix.lca(int32(a), int32(b))
	return int(l)
}

// DistanceID returns the number of edges on the path between the nodes with
// IDs a and b in O(1), or -1 if they belong to different trees (the
// clustering code treats cross-tree distance as infinite). It takes raw
// node IDs, avoiding pointer loads in the clusterer's pairwise loops
// (join's medoid pairs, split's sweeps).
func (ix *Index) DistanceID(a, b int) int {
	if ix.tree[a] != ix.tree[b] {
		return -1
	}
	_, dl := ix.lca(int32(a), int32(b))
	return int(ix.depth[a] + ix.depth[b] - 2*dl)
}

// PathLengthSum returns the total number of edges in the union of the tree
// paths between consecutive pairs. Used by the objective function to compute
// |Et|: the edge set of the mapping subtree t is the union of the paths each
// personal-schema edge maps to (Def. 2). pairs lists (u', v') image pairs.
// All nodes must be in the same tree. Union semantics deduplicate edges
// shared between paths; an edge is identified by its child endpoint.
func (ix *Index) PathLengthSum(pairs [][2]*schema.Node) int {
	seen := make(map[int]struct{}, 8)
	for _, p := range pairs {
		ix.addPathEdges(p[0], p[1], seen)
	}
	return len(seen)
}

func (ix *Index) addPathEdges(a, b *schema.Node, seen map[int]struct{}) {
	l := ix.repo.Node(ix.lcaID(a.ID, b.ID))
	for n := a; n != l; n = n.Parent() {
		seen[n.ID] = struct{}{} // edge (parent(n), n)
	}
	for n := b; n != l; n = n.Parent() {
		seen[n.ID] = struct{}{}
	}
}
