package schema

import (
	"errors"
	"fmt"
)

// Repository is a forest of schema trees — the paper's large schema
// repository R. Node IDs are assigned densely across the whole forest when a
// tree is added, so per-node auxiliary arrays (labels, candidate marks,
// cluster assignments) can be indexed by Node.ID.
//
// Node-ID order is document order: Add numbers trees in insertion order and
// each tree's nodes consecutively in preorder (Tree.Nodes), so a tree's
// nodes are one ID range, every subtree is the range starting at its root,
// and an ancestor's ID is below its descendants'. The labelling index
// (labeling.NewIndex checks it) and the clusterer rely on this: sorting
// nodes by ID groups them by tree and lists each tree ancestors-first.
type Repository struct {
	trees []*Tree
	nodes []*Node
}

// NewRepository returns an empty repository.
func NewRepository() *Repository { return &Repository{} }

// Add inserts a tree into the repository, assigning the next tree ID and the
// next dense node IDs in the tree's preorder. A tree can belong to at most
// one repository; adding it twice or adding it to two repositories is an
// error.
func (r *Repository) Add(t *Tree) error {
	if t == nil || t.root == nil {
		return errors.New("schema: cannot add empty tree")
	}
	if t.ID >= 0 {
		return fmt.Errorf("schema: tree %q already belongs to a repository", t.Name)
	}
	t.ID = len(r.trees)
	r.trees = append(r.trees, t)
	for _, n := range t.nodes {
		n.ID = len(r.nodes)
		r.nodes = append(r.nodes, n)
	}
	return nil
}

// MustAdd is Add but panics on error.
func (r *Repository) MustAdd(t *Tree) {
	if err := r.Add(t); err != nil {
		panic(err)
	}
}

// Trees returns the repository's trees in insertion order. The returned
// slice must not be modified.
func (r *Repository) Trees() []*Tree { return r.trees }

// Tree returns the tree with the given ID.
func (r *Repository) Tree(id int) *Tree { return r.trees[id] }

// NumTrees returns the number of trees in the repository.
func (r *Repository) NumTrees() int { return len(r.trees) }

// Nodes returns every node of the forest; Nodes()[id].ID == id. The returned
// slice must not be modified.
func (r *Repository) Nodes() []*Node { return r.nodes }

// Node returns the node with the given repository-wide ID.
func (r *Repository) Node(id int) *Node { return r.nodes[id] }

// Len returns the total number of nodes across all trees.
func (r *Repository) Len() int { return len(r.nodes) }

// Validate checks every tree and the dense ID assignment.
func (r *Repository) Validate() error {
	want := 0
	for i, t := range r.trees {
		if t.ID != i {
			return fmt.Errorf("schema: tree %q has ID %d, want %d", t.Name, t.ID, i)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("schema: tree %d: %w", i, err)
		}
		for _, n := range t.nodes {
			if n.ID != want {
				return fmt.Errorf("schema: node %v has ID %d, want %d", n, n.ID, want)
			}
			if r.nodes[n.ID] != n {
				return fmt.Errorf("schema: nodes[%d] mismatch", n.ID)
			}
			want++
		}
	}
	if want != len(r.nodes) {
		return fmt.Errorf("schema: repository has %d nodes, trees account for %d", len(r.nodes), want)
	}
	return nil
}

// Stats summarizes a repository for reporting.
type Stats struct {
	Trees    int // number of trees
	Nodes    int // total element+attribute nodes
	MaxDepth int // deepest node across all trees
	MaxTree  int // size of the largest tree
	MinTree  int // size of the smallest tree
}

// Stats computes summary statistics over the forest.
func (r *Repository) Stats() Stats {
	s := Stats{Trees: len(r.trees), Nodes: len(r.nodes)}
	for i, t := range r.trees {
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
