// Package labeling implements node labelling for constant-time structural
// queries over a schema repository: lowest common ancestor, tree distance
// (path length) and ancestor tests.
//
// The paper's Bellflower system "uses node labeling techniques [12] to
// provide low-cost computation of path lengths" because the k-means
// clustering distance measure is evaluated very often (Sec. 4). This package
// is that substrate: an Index is built once per repository in O(N log N) and
// answers Distance/LCA queries in O(1) using an Euler tour with a sparse
// table for range-minimum queries.
//
// On top of the tables sits the auxiliary forest (AuxForest) of a node list
// in document order: the listed nodes plus the LCAs of adjacent ones, built
// with one stack and m−1 LCA lookups, in which path lengths are tree
// distances. Passes over its edges replace pairwise distance queries, and
// the clusterer's two kernels are such passes. Index.Medoid finds a member
// set's exact center of weight — the member minimizing the sum of tree
// distances to all members, ties to the lowest node ID — by rerooting
// distance sums over the members' forest, in O(m) plus the build for members
// in document order (O(m log m) otherwise), against O(m²) lookups for the
// pairwise scan. AuxForest.Nearest gives every vertex its nearest source
// (ties to the lowest node ID) in two linear passes; k-means assignment runs
// it over the forest of the whole element universe with the medoids as
// sources, once per iteration, instead of one distance query per (element,
// centroid) pair. Both always equal their pairwise scans.
//
// Beside the O(1) tables the index keeps a flat parent-ID array next to the
// depths (ParentDepth) for walks that visit a path node by node.
//
// For sharded serving, a View restricts one shared Index to a subset of the
// repository's trees: shards answer every structural query through the
// single resident index (member nodes are the repository's own node
// objects) and carry only a dense global↔local node-ID translation, so
// index memory stays one full-repository copy regardless of shard count.
// Index.MemoryBytes and View.MemoryBytes expose the resident footprint for
// stats and benchmarks.
package labeling

import (
	"fmt"
	"math/bits"

	"bellflower/internal/schema"
)

// Index answers structural queries over one repository in O(1) after an
// O(N log N) build. The Index is immutable and safe for concurrent use.
type Index struct {
	repo *schema.Repository

	// Per node (indexed by Node.ID):
	depth  []int32 // node depth within its tree
	parent []int32 // parent node ID, -1 at a root
	tree   []int32 // owning tree ID
	first  []int32 // first occurrence of the node in the Euler tour

	// Euler tour of the whole forest; tours of individual trees are
	// concatenated (queries never cross trees because first-occurrence
	// indices of nodes in different trees are compared only after the tree
	// check).
	euler []int32 // node IDs in tour order

	// sparse[k][i] = node ID with minimum depth in euler[i : i+2^k]
	sparse [][]int32
	log2   []uint8 // floor(log2(i)) for i in [1, len(euler)]
}

// NewIndex builds the labelling index for a repository.
func NewIndex(repo *schema.Repository) *Index {
	n := repo.Len()
	ix := &Index{
		repo:   repo,
		depth:  make([]int32, n),
		parent: make([]int32, n),
		tree:   make([]int32, n),
		first:  make([]int32, n),
	}
	ix.euler = make([]int32, 0, 2*n)
	for _, t := range repo.Trees() {
		ix.tourTree(t)
	}
	ix.buildSparse()
	return ix
}

func (ix *Index) tourTree(t *schema.Tree) {
	// Iterative Euler tour to keep stack depth independent of tree shape.
	type frame struct {
		node *schema.Node
		next int // next child index to visit
	}
	root := t.Root()
	stack := []frame{{node: root}}
	ix.visit(root, t)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := f.node.Children()
		if f.next < len(kids) {
			c := kids[f.next]
			f.next++
			ix.visit(c, t)
			stack = append(stack, frame{node: c})
			continue
		}
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			// returning to the parent: record it again in the tour
			ix.euler = append(ix.euler, int32(stack[len(stack)-1].node.ID))
		}
	}
}

func (ix *Index) visit(n *schema.Node, t *schema.Tree) {
	id := n.ID
	ix.depth[id] = int32(n.Depth)
	ix.parent[id] = -1
	if p := n.Parent(); p != nil {
		ix.parent[id] = int32(p.ID)
	}
	ix.tree[id] = int32(t.ID)
	ix.first[id] = int32(len(ix.euler))
	ix.euler = append(ix.euler, int32(id))
}

func (ix *Index) buildSparse() {
	m := len(ix.euler)
	if m == 0 {
		return
	}
	levels := bits.Len(uint(m))
	ix.sparse = make([][]int32, levels)
	ix.sparse[0] = ix.euler // level 0 is the tour itself
	for k := 1; k < levels; k++ {
		width := 1 << k
		prev := ix.sparse[k-1]
		row := make([]int32, m-width+1)
		half := width / 2
		for i := range row {
			a, b := prev[i], prev[i+half]
			if ix.depth[a] <= ix.depth[b] {
				row[i] = a
			} else {
				row[i] = b
			}
		}
		ix.sparse[k] = row
	}
	ix.log2 = make([]uint8, m+1)
	for i := 2; i <= m; i++ {
		ix.log2[i] = ix.log2[i/2] + 1
	}
}

// Repository returns the repository the index was built over.
func (ix *Index) Repository() *schema.Repository { return ix.repo }

// MemoryBytes estimates the index's resident bytes: the per-node label
// arrays, the Euler tour and the sparse RMQ table (whose level 0 aliases
// the tour and is counted once). This is the figure sharding de-duplicates
// — serve stats and the throughput benchmark report it so a second
// full-repository copy cannot reappear unnoticed.
func (ix *Index) MemoryBytes() int64 {
	b := int64(len(ix.depth)+len(ix.parent)+len(ix.tree)+len(ix.first)+len(ix.euler)) * 4
	for k := 1; k < len(ix.sparse); k++ { // sparse[0] aliases euler
		b += int64(len(ix.sparse[k])) * 4
	}
	return b + int64(len(ix.log2))
}

// SameTree reports whether the two nodes belong to the same tree.
func (ix *Index) SameTree(a, b *schema.Node) bool {
	return ix.tree[a.ID] == ix.tree[b.ID]
}

// TreeID returns the tree ID of the node.
func (ix *Index) TreeID(n *schema.Node) int { return int(ix.tree[n.ID]) }

// Depth returns the node's depth within its tree.
func (ix *Index) Depth(n *schema.Node) int { return int(ix.depth[n.ID]) }

// TreeOfID is TreeID over a raw node ID.
func (ix *Index) TreeOfID(id int) int { return int(ix.tree[id]) }

// DocOrder returns the node's rank key in document order across the whole
// forest: the position of its first occurrence in the Euler tour. Keys grow
// with (tree, preorder position), so sorting nodes by DocOrder groups them
// by tree and lists each tree's nodes ancestors-first — the order
// Index.Medoid processes members in.
func (ix *Index) DocOrder(id int) int32 { return ix.first[id] }

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
	i, j := ix.first[a], ix.first[b]
	if i > j {
		i, j = j, i
	}
	length := j - i + 1
	k := ix.log2[length]
	left := ix.sparse[k][i]
	right := ix.sparse[k][j-int32(1)<<k+1]
	if ix.depth[left] <= ix.depth[right] {
		return int(left)
	}
	return int(right)
}

// Distance returns the number of edges on the path between a and b in O(1),
// or -1 if the nodes belong to different trees (the clustering code treats
// cross-tree distance as infinite).
func (ix *Index) Distance(a, b *schema.Node) int {
	if ix.tree[a.ID] != ix.tree[b.ID] {
		return -1
	}
	l := ix.lcaID(a.ID, b.ID)
	return int(ix.depth[a.ID] + ix.depth[b.ID] - 2*ix.depth[l])
}

// DistanceID is Distance over raw node IDs, avoiding pointer loads in the
// clusterer's pairwise loops (join's medoid pairs, split's sweeps).
func (ix *Index) DistanceID(a, b int) int {
	if ix.tree[a] != ix.tree[b] {
		return -1
	}
	l := ix.lcaID(a, b)
	return int(ix.depth[a] + ix.depth[b] - 2*ix.depth[l])
}

// IsAncestor reports whether a is an ancestor of b (inclusive: a node is its
// own ancestor for this predicate's purposes when a == b).
func (ix *Index) IsAncestor(a, b *schema.Node) bool {
	if ix.tree[a.ID] != ix.tree[b.ID] {
		return false
	}
	return ix.lcaID(a.ID, b.ID) == a.ID
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
