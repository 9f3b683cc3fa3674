package schema

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
