package labeling

import "slices"

// MedoidScratch holds the buffers Index.Medoid reuses between calls. The
// zero value is ready to use; a scratch serves one goroutine at a time.
type MedoidScratch struct {
	keys  []uint64 // first-occurrence<<32 | position, for unsorted input only
	nodes []vnode  // the auxiliary tree, members and branching nodes alike
	stack []int32  // root-to-current chain of vnode indices
	pop   []int32  // vnode indices in the order they left the stack (a post-order)
}

// vnode is one vertex of the auxiliary tree of a member set: a member, or
// the lowest common ancestor of two members adjacent in Euler order.
type vnode struct {
	id     int32 // repository node ID
	depth  int32
	parent int32 // index into MedoidScratch.nodes, -1 for the root
	member int32 // position in the ids argument, -1 for a pure branching node
	cnt    int32 // members in this vertex's auxiliary subtree
	sum    int64 // distances to the members below; after rerooting, to all members
}

// Medoid returns the position in ids of the member with the smallest sum of
// tree distances to all members — the cluster's "center of weight" — and, of
// several such members, the one with the lowest node ID. The result is exact
// and equals an exhaustive O(m²) scan with full integer sums.
//
// ids must be non-empty and name nodes of one tree; both are checked. Members
// already in Euler (document) order, which is how the clusterer keeps them,
// cost O(m) plus m−1 LCA lookups; any other order costs an O(m log m) sort
// first. A node listed twice counts twice.
//
// The sums come from the members' auxiliary tree — the members plus the LCAs
// of Euler-adjacent members, at most 2m−1 vertices, built with one stack —
// and a two-pass rerooting over its edges, whose lengths are depth
// differences: popping a vertex off the stack folds its subtree's member
// count and distance sum into its parent (bottom-up pass), and walking the
// pop order backwards derives every vertex's total from its parent's
// (top-down pass), total(v) = total(parent) + (m − 2·cnt(v))·len(v, parent).
func (ix *Index) Medoid(ids []int32, sc *MedoidScratch) int {
	m := len(ids)
	if m == 0 {
		panic("labeling: Medoid of no members")
	}
	tree, sorted := ix.tree[ids[0]], true
	for k := 1; k < m; k++ {
		if ix.tree[ids[k]] != tree {
			panic("labeling: Medoid members in different trees")
		}
		if ix.first[ids[k]] < ix.first[ids[k-1]] {
			sorted = false
		}
	}
	switch m {
	case 1:
		return 0
	case 2: // both sums are the pair's distance
		if ids[1] < ids[0] {
			return 1
		}
		return 0
	}
	keys := sc.keys[:0]
	if !sorted {
		for k, id := range ids {
			keys = append(keys, uint64(ix.first[id])<<32|uint64(k))
		}
		slices.Sort(keys)
		sc.keys = keys
	}
	at := func(k int) int32 { // position in ids of the k-th member in Euler order
		if sorted {
			return int32(k)
		}
		return int32(uint32(keys[k]))
	}

	nodes, stack, pop := sc.nodes[:0], sc.stack[:0], sc.pop[:0]
	// leave pops the top of the stack, hanging it under parent p.
	leave := func(p int32) {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pop = append(pop, c)
		v := &nodes[c]
		v.parent = p
		up := &nodes[p]
		up.cnt += v.cnt
		up.sum += v.sum + int64(v.cnt)*int64(v.depth-up.depth)
	}
	for k := 0; k < m; k++ {
		pos := at(k)
		id := ids[pos]
		if k > 0 {
			// The stack is the chain from the auxiliary root down to the
			// previous member; the LCA with it says where id branches off.
			l := int32(ix.lcaID(int(nodes[stack[len(stack)-1]].id), int(id)))
			dl := ix.depth[l]
			for len(stack) >= 2 && nodes[stack[len(stack)-2]].depth >= dl {
				leave(stack[len(stack)-2])
			}
			if top := stack[len(stack)-1]; nodes[top].depth > dl {
				// l is a new branching vertex between the top and the one
				// below it; it takes the top's place on the stack.
				nodes = append(nodes, vnode{id: l, depth: dl, parent: -1, member: -1})
				li := int32(len(nodes) - 1)
				leave(li)
				stack = append(stack, li)
			}
		}
		nodes = append(nodes, vnode{id: id, depth: ix.depth[id], parent: -1, member: pos, cnt: 1})
		stack = append(stack, int32(len(nodes)-1))
	}
	for len(stack) >= 2 {
		leave(stack[len(stack)-2])
	}
	for k := len(pop) - 1; k >= 0; k-- {
		v := &nodes[pop[k]]
		up := &nodes[v.parent]
		v.sum = up.sum + int64(int32(m)-2*v.cnt)*int64(v.depth-up.depth)
	}
	sc.nodes, sc.stack, sc.pop = nodes, stack[:0], pop

	best := -1
	var bestSum int64
	var bestID int32
	for i := range nodes {
		v := &nodes[i]
		if v.member < 0 {
			continue
		}
		if best < 0 || v.sum < bestSum || (v.sum == bestSum && v.id < bestID) {
			best, bestSum, bestID = int(v.member), v.sum, v.id
		}
	}
	return best
}
