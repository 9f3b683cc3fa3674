package objective

import (
	"bellflower/internal/labeling"
	"bellflower/internal/schema"
)

// DenseEdgeUnion maintains |Et|, the size of the union of the mapped paths,
// as a search assigns and retracts personal nodes, without allocating: the
// per-edge refcounts live in a dense int32 array indexed by node ID (an
// edge is identified by its child endpoint) and the undo information is an
// internal LIFO stack of touched IDs, addressed by integer marks instead
// of per-Push token slices. A warm Push/Pop cycle therefore allocates
// nothing — the property the pooled mapping-generation search state is
// built on.
//
// The push/pop discipline is strictly stack-like: Pop restores the union
// to the state at the mark a Push returned, and marks must be popped in
// reverse order of acquisition (exactly the depth-first search pattern).
// A DenseEdgeUnion is not safe for concurrent use; each search owns one.
type DenseEdgeUnion struct {
	parent, depth []int32 // the index's flat arrays (labeling.Index.ParentDepth)
	count         []int32
	stack         []int32
	size          int
}

// NewDenseEdgeUnion returns an empty union sized for the index's
// repository.
func NewDenseEdgeUnion(ix *labeling.Index) *DenseEdgeUnion {
	u := &DenseEdgeUnion{}
	u.Retarget(ix)
	return u
}

// Retarget points an empty union at a (possibly different) index, growing
// the refcount array to that index's repository. The union must be empty —
// pooled search states call this when they are reused across repositories.
// It panics on a non-empty union, where silently rebinding would corrupt
// refcounts.
func (u *DenseEdgeUnion) Retarget(ix *labeling.Index) {
	if u.size != 0 || len(u.stack) != 0 {
		panic("objective: DenseEdgeUnion.Retarget on a non-empty union")
	}
	u.parent, u.depth = ix.ParentDepth()
	if n := ix.Repository().Len(); n > len(u.count) {
		if n <= cap(u.count) {
			u.count = u.count[:n]
		} else {
			grown := make([]int32, n)
			copy(grown, u.count)
			u.count = grown
		}
	}
}

// Size returns the current |Et|.
func (u *DenseEdgeUnion) Size() int { return u.size }

// Push adds the path between a and b (same tree) and returns the mark to
// Pop back to. The deeper endpoint climbs the flat parent array until the
// two meet: no LCA query, no pointer chase.
func (u *DenseEdgeUnion) Push(a, b *schema.Node) int {
	mark := len(u.stack)
	x, y := int32(a.ID), int32(b.ID)
	for x != y {
		if u.depth[x] > u.depth[y] {
			x, y = y, x
		}
		u.push(y) // the deeper end
		y = u.parent[y]
	}
	return mark
}

func (u *DenseEdgeUnion) push(id int32) {
	u.stack = append(u.stack, id)
	u.count[id]++
	if u.count[id] == 1 {
		u.size++
	}
}

// Pop restores the union to the state at mark, undoing every Push made
// since. It panics when mark does not address a prefix of the stack.
func (u *DenseEdgeUnion) Pop(mark int) {
	if mark < 0 || mark > len(u.stack) {
		panic("objective: DenseEdgeUnion.Pop with a foreign mark")
	}
	for i := len(u.stack) - 1; i >= mark; i-- {
		id := u.stack[i]
		u.count[id]--
		if u.count[id] == 0 {
			u.size--
		}
	}
	u.stack = u.stack[:mark]
}
