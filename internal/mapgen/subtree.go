package mapgen

import (
	"math/bits"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
)

// subtree tracks T, the node set of the mapping subtree built so far —
// connected, so |Et| = |T| − 1 — and, per personal node, how many of its
// candidates in the cluster being searched lie inside T and are not an image
// yet: the look-ahead of the bound (doc.go), O(1) amortised per path node.
// Between clusters every array is zero again.
type subtree struct {
	parent, depth []int32   // the index's flat arrays
	count         []int32   // per repository node: pushed paths through it
	candOf        []uint64  // per repository node: personal nodes it is a candidate of
	stack         []int32   // pushed node IDs, popped back to a mark
	nodes         int       // |T|
	free          [64]int32 // per personal node: unused candidates inside T
	live          uint64    // personal nodes whose free count is > 0
}

// retarget points an empty tracker at the index's repository.
func (t *subtree) retarget(ix *labeling.Index) {
	t.parent, t.depth = ix.ParentDepth()
	if grow := len(t.parent) - len(t.count); grow > 0 {
		t.count = append(t.count, make([]int32, grow)...)
		t.candOf = append(t.candOf, make([]uint64, grow)...)
	}
}

// setCandidates installs (on) or clears one cluster's candidate masks.
func (t *subtree) setCandidates(sets [][]matcher.Candidate, on bool) {
	for i, set := range sets {
		for _, c := range set {
			if on {
				t.candOf[c.Node.ID] |= 1 << uint(i)
			} else {
				t.candOf[c.Node.ID] = 0
			}
		}
	}
}

// push adds the nodes of the path between a and b, both ends and their
// meeting point included (a == b: the one node), and returns the mark to pop
// back to. The deeper end climbs the parent array until the two meet.
func (t *subtree) push(a, b int32) int {
	mark := len(t.stack)
	for a != b {
		if t.depth[a] > t.depth[b] {
			a, b = b, a
		}
		t.stack = append(t.stack, b) // the deeper end
		b = t.parent[b]
	}
	t.stack = append(t.stack, a)
	for _, id := range t.stack[mark:] {
		if t.count[id]++; t.count[id] == 1 {
			t.nodes++
			t.adjust(id, 1)
		}
	}
	return mark
}

// pop undoes every push made since mark.
func (t *subtree) pop(mark int) {
	for _, id := range t.stack[mark:] {
		if t.count[id]--; t.count[id] == 0 {
			t.nodes--
			t.adjust(id, -1)
		}
	}
	t.stack = t.stack[:mark]
}

// adjust adds d to the free count of every personal node that repository
// node id is a candidate of: +1 when id enters T or stops being an image,
// −1 when it leaves T or becomes one.
func (t *subtree) adjust(id, d int32) {
	for m := t.candOf[id]; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		if t.free[j] += d; t.free[j] == 0 {
			t.live &^= 1 << uint(j)
		} else {
			t.live |= 1 << uint(j)
		}
	}
}

// edgesAtLeast bounds the final |Et| from below: each remaining personal
// node with no free candidate inside T must take an image outside it.
func (t *subtree) edgesAtLeast(remaining uint64) int {
	return t.nodes - 1 + bits.OnesCount64(remaining&^t.live)
}
