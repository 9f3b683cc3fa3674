package labeling

import "slices"

// AuxForest is the auxiliary forest of a node sequence in document order:
// one vertex per listed node, plus the lowest common ancestor of every two
// nodes adjacent in the sequence and in one tree, each vertex hung under its
// nearest vertex ancestor. A tree of m listed nodes gets at most 2m−1
// vertices. The vertex set is closed under LCA, so with edge lengths taken as
// depth differences the path length between two vertices in the forest is
// their tree distance — a pass over the forest's edges answers questions
// that otherwise cost one distance query per pair.
//
// Index.Medoid reroots distance sums over it, and the clusterer's k-means
// assignment runs Nearest over the forest of its whole element universe.
// The zero value is ready to use; Build reuses the buffers, so a forest
// serves one goroutine at a time.
type AuxForest struct {
	// Verts holds the vertices: listed nodes and branching nodes alike.
	Verts []AuxVertex

	// Post lists every vertex once, children before parents: walked
	// forward it is a bottom-up pass, walked backward a top-down one.
	Post []int32

	// At[k] is the vertex of the k-th listed node. A node listed more than
	// once gets a vertex per listing, the later ones children of the first
	// at length 0.
	At []int32

	stack []int32 // Build: root-to-current chain of vertex indices
}

// AuxVertex is one vertex of an AuxForest.
type AuxVertex struct {
	Node   int32 // repository node ID
	Depth  int32 // the node's depth in its tree
	Parent int32 // index into AuxForest.Verts, -1 at a root
}

// BuildAuxForest fills f with the auxiliary forest of ids, which must be in
// document order — non-decreasing node IDs, checked — and may span trees:
// O(m) plus one LCA lookup per adjacent pair of the same tree.
//
// The construction keeps one stack, the chain from the current tree's root
// vertex down to the previous listed node. The LCA of that node and the next
// says where the next branches off: vertices below the LCA are finished and
// leave the stack (each appended to Post as it leaves, so Post is a
// post-order), and the LCA itself becomes a vertex if it is not one yet.
func (ix *Index) BuildAuxForest(ids []int32, f *AuxForest) {
	verts, post, at, stack := f.Verts[:0], f.Post[:0], f.At[:0], f.stack[:0]
	// leave pops the top of the stack, hanging it under vertex p.
	leave := func(p int32) {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		verts[c].Parent = p
		post = append(post, c)
	}
	// flush finishes the current tree: its root is the bottom of the stack.
	flush := func() {
		for len(stack) >= 2 {
			leave(stack[len(stack)-2])
		}
		if len(stack) == 1 {
			leave(-1)
		}
	}
	for k, id := range ids {
		if k > 0 {
			prev := ids[k-1]
			if id < prev {
				panic("labeling: BuildAuxForest input not in document order")
			}
			if ix.tree[id] != ix.tree[prev] {
				flush()
			} else {
				l, dl := ix.lca(prev, id)
				for len(stack) >= 2 && verts[stack[len(stack)-2]].Depth >= dl {
					leave(stack[len(stack)-2])
				}
				if top := stack[len(stack)-1]; verts[top].Depth > dl {
					// l is a new branching vertex between the top and the one
					// below it; it takes the top's place on the stack.
					verts = append(verts, AuxVertex{Node: l, Depth: dl, Parent: -1})
					li := int32(len(verts) - 1)
					leave(li)
					stack = append(stack, li)
				}
			}
		}
		verts = append(verts, AuxVertex{Node: id, Depth: ix.depth[id], Parent: -1})
		at = append(at, int32(len(verts)-1))
		stack = append(stack, int32(len(verts)-1))
	}
	flush()
	f.Verts, f.Post, f.At, f.stack = verts, post, at, stack
}

// Reach is a vertex's nearest source, as AuxForest.Nearest finds it.
type Reach struct {
	Dist   int32 // tree distance from the vertex to the source
	Node   int32 // the source's repository node ID
	Source int32 // the source's index in the sources argument, -1 for none
}

// Nearest gives every vertex of f its nearest source in its own tree: of the
// listed nodes at positions sources[i] (distinct), the one with the smallest
// (tree distance, node ID), as Reach{distance, node ID, i}. A vertex whose
// tree holds no source gets Source −1. reach is reused when it has the
// capacity; the result has one entry per vertex, so reach[f.At[k]] is the
// answer for the k-th listed node.
//
// The answer equals a pairwise scan of the sources with full tree distances,
// ties to the lowest node ID, but takes two linear passes over the forest and
// no distance query: bottom-up over Post, each vertex offers its best
// (distance + edge length, node) to its parent — leaving every vertex the
// nearest source below it — then top-down over Post reversed, each vertex
// takes its parent's best plus the edge if that is smaller. The lexicographic
// minimum survives adding the same length to every candidate, so ties break
// exactly as in the scan.
func (f *AuxForest) Nearest(sources []int32, reach []Reach) []Reach {
	reach = slices.Grow(reach[:0], len(f.Verts))[:len(f.Verts)]
	for v := range reach {
		reach[v] = Reach{Source: -1}
	}
	for i, k := range sources {
		v := f.At[k]
		reach[v] = Reach{Node: f.Verts[v].Node, Source: int32(i)}
	}
	verts := f.Verts
	for _, v := range f.Post {
		p := verts[v].Parent
		if p < 0 || reach[v].Source < 0 {
			continue
		}
		if r := (Reach{reach[v].Dist + verts[v].Depth - verts[p].Depth, reach[v].Node, reach[v].Source}); r.before(reach[p]) {
			reach[p] = r
		}
	}
	for k := len(f.Post) - 1; k >= 0; k-- {
		v := f.Post[k]
		p := verts[v].Parent
		if p < 0 || reach[p].Source < 0 {
			continue
		}
		if r := (Reach{reach[p].Dist + verts[v].Depth - verts[p].Depth, reach[p].Node, reach[p].Source}); r.before(reach[v]) {
			reach[v] = r
		}
	}
	return reach
}

// before reports whether source r is nearer than s — (distance, node ID)
// order, and any source before none.
func (r Reach) before(s Reach) bool {
	return s.Source < 0 || r.Dist < s.Dist || (r.Dist == s.Dist && r.Node < s.Node)
}
