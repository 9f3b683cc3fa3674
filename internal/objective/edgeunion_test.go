package objective

import (
	"bellflower/internal/labeling"
	"bellflower/internal/schema"
)

// The map-based edge union below is the straightforward reference the
// tests pin DenseEdgeUnion to; it left the production package when the
// last non-test caller did.

// EdgeUnion incrementally maintains |Et| — the size of the union of the
// mapped paths — as the Branch & Bound generator assigns and retracts
// personal nodes. Paths may share edges; the union counts each edge once.
// An edge is identified by its child endpoint's node ID.
//
// Push returns an undo token; Pop with that token restores the previous
// state, enabling depth-first backtracking.
type EdgeUnion struct {
	ix    *labeling.Index
	count map[int]int
	size  int
}

// NewEdgeUnion returns an empty union over the given index.
func NewEdgeUnion(ix *labeling.Index) *EdgeUnion {
	return &EdgeUnion{ix: ix, count: make(map[int]int)}
}

// Size returns the current |Et|.
func (u *EdgeUnion) Size() int { return u.size }

// Push adds the path between a and b (same tree) and returns the edge IDs
// whose refcount it incremented, for use with Pop.
func (u *EdgeUnion) Push(a, b *schema.Node) []int {
	l := u.ix.LCA(a, b)
	var touched []int
	for n := a; n != l; n = n.Parent() {
		touched = append(touched, n.ID)
	}
	for n := b; n != l; n = n.Parent() {
		touched = append(touched, n.ID)
	}
	for _, id := range touched {
		u.count[id]++
		if u.count[id] == 1 {
			u.size++
		}
	}
	return touched
}

// Pop undoes a Push.
func (u *EdgeUnion) Pop(touched []int) {
	for _, id := range touched {
		u.count[id]--
		switch u.count[id] {
		case 0:
			u.size--
			delete(u.count, id)
		default:
			if u.count[id] < 0 {
				panic("objective: EdgeUnion.Pop without matching Push")
			}
		}
	}
}
