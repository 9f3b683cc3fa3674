package labeling

import (
	"fmt"

	"bellflower/internal/schema"
)

// View is a lightweight restriction of an Index to a subset of the
// repository's trees — the substrate of shared-index sharding. A shard
// backed by a View answers depth, LCA and distance queries through the one
// repository-wide Index (View.Index; its member nodes ARE the repository's
// nodes, no clones), so any number of views share a single resident index
// instead of each shard building its own. A View additionally carries a dense
// global↔local node-ID translation: local IDs number the member nodes
// 0..Len()-1 in repository order, giving out-of-process shard clients (and
// per-shard auxiliary arrays) a compact ID space without materializing a
// sub-repository.
//
// A View is immutable and safe for concurrent use. Build one with NewView;
// the construction is O(repository size) in time and keeps O(repository
// size) int32 translation state — small next to the range-minimum table of
// the Index it avoids duplicating.
type View struct {
	ix    *Index
	trees []*schema.Tree

	local  []int32        // global node ID → local ID, -1 outside the view
	global []int32        // local ID → global node ID
	nodes  []*schema.Node // member nodes in local-ID order, built once
}

// NewView builds a view of the index restricted to the given trees, which
// must belong to the index's repository. Trees are recorded in the order
// given; member nodes get local IDs in that same order (tree by tree, each
// tree's nodes in preorder).
func NewView(ix *Index, trees []*schema.Tree) *View {
	repo := ix.Repository()
	v := &View{
		ix:    ix,
		trees: append([]*schema.Tree(nil), trees...),
		local: make([]int32, repo.Len()),
	}
	for i := range v.local {
		v.local[i] = -1
	}
	n := 0
	for _, t := range v.trees {
		n += t.Len()
	}
	v.global = make([]int32, 0, n)
	for _, t := range v.trees {
		if t.ID < 0 || t.ID >= repo.NumTrees() || repo.Tree(t.ID) != t {
			panic(fmt.Sprintf("labeling: NewView: tree %q does not belong to the index's repository", t.Name))
		}
		if v.local[t.Root().ID] >= 0 {
			panic(fmt.Sprintf("labeling: NewView: tree %q listed twice", t.Name))
		}
		for _, node := range t.Nodes() {
			v.local[node.ID] = int32(len(v.global))
			v.global = append(v.global, int32(node.ID))
			v.nodes = append(v.nodes, node)
		}
	}
	return v
}

// Index returns the shared repository-wide index the view restricts.
func (v *View) Index() *Index { return v.ix }

// Repository returns the full repository the underlying index was built
// over (not a sub-repository — views do not clone trees).
func (v *View) Repository() *schema.Repository { return v.ix.Repository() }

// Trees returns the member trees. The returned slice must not be modified.
func (v *View) Trees() []*schema.Tree { return v.trees }

// NumTrees returns the number of member trees.
func (v *View) NumTrees() int { return len(v.trees) }

// Len returns the total number of member nodes.
func (v *View) Len() int { return len(v.global) }

// Contains reports whether the repository node belongs to a member tree.
func (v *View) Contains(n *schema.Node) bool {
	return n != nil && n.ID >= 0 && n.ID < len(v.local) && v.local[n.ID] >= 0 &&
		v.ix.Repository().Node(n.ID) == n
}

// LocalID translates a member node's repository-wide ID into the view's
// dense local ID space, or -1 when the node is outside the view.
func (v *View) LocalID(n *schema.Node) int {
	if !v.Contains(n) {
		return -1
	}
	return int(v.local[n.ID])
}

// Node returns the member node with the given local ID.
func (v *View) Node(l int) *schema.Node { return v.ix.Repository().Node(int(v.global[l])) }

// Nodes returns every member node (the repository's own node objects, not
// copies) in local-ID order. The slice is built once at view construction
// and shared by every caller — Runner.matchNodes sits on the cold-path
// element-matching loop, so a per-call materialization would allocate
// O(view) per request. The returned slice must not be modified.
func (v *View) Nodes() []*schema.Node { return v.nodes }

// TreeID returns the repository-wide tree ID of the member node. It panics
// for nodes outside the view.
func (v *View) TreeID(n *schema.Node) int {
	v.mustContain(n, "TreeID")
	return v.ix.TreeID(n)
}

func (v *View) mustContain(n *schema.Node, op string) {
	if !v.Contains(n) {
		panic(fmt.Sprintf("labeling: View.%s(%v): node outside the view's member trees", op, n))
	}
}

// Stats summarizes the member trees the way Repository.Stats summarizes a
// whole repository, so a view-backed shard reports its own slice of the
// forest rather than the shared total.
func (v *View) Stats() schema.Stats {
	s := schema.Stats{Trees: len(v.trees)}
	for i, t := range v.trees {
		s.Nodes += t.Len()
		if d := t.MaxDepth(); d > s.MaxDepth {
			s.MaxDepth = d
		}
		if l := t.Len(); l > s.MaxTree {
			s.MaxTree = l
		}
		if l := t.Len(); i == 0 || l < s.MinTree {
			s.MinTree = l
		}
	}
	return s
}
