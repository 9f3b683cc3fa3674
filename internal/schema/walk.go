package schema

// Walk visits every node of the tree in preorder, calling fn. If fn returns
// false the node's subtree is skipped (the walk continues with the next
// sibling).
func Walk(t *Tree, fn func(n *Node) bool) {
	if t.root == nil {
		return
	}
	walkNode(t.root, fn)
}

func walkNode(n *Node, fn func(n *Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.children {
		walkNode(c, fn)
	}
}

// Leaves returns the leaves of the tree in preorder.
func Leaves(t *Tree) []*Node {
	var out []*Node
	Walk(t, func(n *Node) bool {
		if n.IsLeaf() {
			out = append(out, n)
		}
		return true
	})
	return out
}

// LCA returns the lowest common ancestor of a and b by walking parent
// pointers. Both must belong to the same tree. The labeling package offers
// an O(1) alternative for hot paths.
func LCA(a, b *Node) *Node {
	if a.tree != b.tree {
		panic("schema: LCA of nodes in different trees")
	}
	for a.Depth > b.Depth {
		a = a.parent
	}
	for b.Depth > a.Depth {
		b = b.parent
	}
	for a != b {
		a, b = a.parent, b.parent
	}
	return a
}
