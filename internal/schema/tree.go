package schema

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Tree is a rooted, ordered, labelled schema tree (the paper's schema graph
// restricted to trees, Sec. 2.1). Trees are built with a Builder and are
// immutable afterwards.
type Tree struct {
	// ID is the tree's index within its repository, or -1 if the tree has
	// not been added to a repository (e.g. a personal schema).
	ID int

	// Name is an optional label for the tree (file name, generator tag...).
	Name string

	root  *Node
	nodes []*Node // preorder
}

// Root returns the tree root.
func (t *Tree) Root() *Node { return t.root }

// Nodes returns all nodes of the tree in preorder. The returned slice must
// not be modified.
func (t *Tree) Nodes() []*Node { return t.nodes }

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.nodes) }

// NumEdges returns the number of edges of the tree (Len()-1 for non-empty
// trees).
func (t *Tree) NumEdges() int {
	if len(t.nodes) == 0 {
		return 0
	}
	return len(t.nodes) - 1
}

// NodeAt returns the node with the given preorder rank.
func (t *Tree) NodeAt(pre int) *Node { return t.nodes[pre] }

// MaxDepth returns the maximum node depth in the tree (0 for a single-node
// tree).
func (t *Tree) MaxDepth() int {
	max := 0
	for _, n := range t.nodes {
		if n.Depth > max {
			max = n.Depth
		}
	}
	return max
}

// Find returns the first (preorder) node whose name equals name, or nil.
func (t *Tree) Find(name string) *Node {
	for _, n := range t.nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Distance returns the number of edges on the unique path between a and b,
// both of which must belong to the tree. It walks parent pointers; callers
// that need many distance computations should use the labeling package
// instead.
func (t *Tree) Distance(a, b *Node) int {
	if a.tree != t || b.tree != t {
		panic("schema: Distance called with foreign node")
	}
	d := 0
	for a.Depth > b.Depth {
		a = a.parent
		d++
	}
	for b.Depth > a.Depth {
		b = b.parent
		d++
	}
	for a != b {
		a, b = a.parent, b.parent
		d += 2
	}
	return d
}

// PathBetween returns the nodes on the unique path from a to b inclusive.
func (t *Tree) PathBetween(a, b *Node) []*Node {
	if a.tree != t || b.tree != t {
		panic("schema: PathBetween called with foreign node")
	}
	var up, down []*Node
	x, y := a, b
	for x.Depth > y.Depth {
		up = append(up, x)
		x = x.parent
	}
	for y.Depth > x.Depth {
		down = append(down, y)
		y = y.parent
	}
	for x != y {
		up = append(up, x)
		down = append(down, y)
		x, y = x.parent, y.parent
	}
	up = append(up, x)
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

// String renders the tree in compact spec syntax (see ParseSpec).
func (t *Tree) String() string {
	if t.root == nil {
		return "()"
	}
	var b strings.Builder
	writeSpec(&b, t.root)
	return b.String()
}

func writeSpec(b *strings.Builder, n *Node) {
	b.WriteString(n.Name)
	if n.Kind == KindAttribute {
		b.WriteString("@")
	}
	if len(n.children) == 0 {
		return
	}
	b.WriteString("(")
	for i, c := range n.children {
		if i > 0 {
			b.WriteString(",")
		}
		writeSpec(b, c)
	}
	b.WriteString(")")
}

// Validate checks the structural invariants of the tree: exactly one root,
// consistent parent/child links, correct pre/post/depth/subtree labels and
// node ownership. It returns nil when the tree is well formed. It exists so
// that tests (including property-based tests) can assert internal
// consistency after every construction path.
func (t *Tree) Validate() error {
	if t.root == nil {
		return errors.New("schema: tree has no root")
	}
	if t.root.parent != nil {
		return errors.New("schema: root has a parent")
	}
	if len(t.nodes) == 0 || t.nodes[0] != t.root {
		return errors.New("schema: nodes[0] is not the root")
	}
	seen := make(map[*Node]bool, len(t.nodes))
	for pre, n := range t.nodes {
		if n.tree != t {
			return fmt.Errorf("schema: node %v owned by foreign tree", n)
		}
		if seen[n] {
			return fmt.Errorf("schema: node %v listed twice", n)
		}
		seen[n] = true
		if n.Pre != pre {
			return fmt.Errorf("schema: node %v has Pre=%d, want %d", n, n.Pre, pre)
		}
		if n.parent != nil {
			if n.parent.tree != t {
				return fmt.Errorf("schema: parent of %v in foreign tree", n)
			}
			if n.Depth != n.parent.Depth+1 {
				return fmt.Errorf("schema: node %v depth %d, parent depth %d", n, n.Depth, n.parent.Depth)
			}
			found := false
			for _, c := range n.parent.children {
				if c == n {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("schema: node %v missing from parent's children", n)
			}
		} else if n != t.root {
			return fmt.Errorf("schema: non-root node %v has no parent", n)
		}
		size := 1
		for _, c := range n.children {
			if c.parent != n {
				return fmt.Errorf("schema: child %v of %v has wrong parent", c, n)
			}
			size += c.sub
		}
		if n.sub != size {
			return fmt.Errorf("schema: node %v subtree size %d, want %d", n, n.sub, size)
		}
	}
	// Postorder ranks must be a permutation consistent with ancestry.
	post := make([]int, len(t.nodes))
	for _, n := range t.nodes {
		if n.Post < 0 || n.Post >= len(t.nodes) {
			return fmt.Errorf("schema: node %v post rank %d out of range", n, n.Post)
		}
		post[n.Post]++
	}
	for i, c := range post {
		if c != 1 {
			return fmt.Errorf("schema: post rank %d used %d times", i, c)
		}
	}
	return nil
}

// Clone returns a deep copy of the tree that belongs to no repository.
func (t *Tree) Clone() *Tree {
	if t.root == nil {
		return &Tree{ID: -1, Name: t.Name}
	}
	b := NewBuilder(t.Name)
	var rec func(src *Node, dstParent *Node)
	rec = func(src *Node, dstParent *Node) {
		dst := b.add(dstParent, src.Name, src.Kind, src.Type)
		for _, c := range src.children {
			rec(c, dst)
		}
	}
	rec(t.root, nil)
	out, err := b.Tree()
	if err != nil {
		// A valid tree always clones into a valid tree.
		panic("schema: Clone produced invalid tree: " + err.Error())
	}
	return out
}

// Names returns the sorted set of distinct node names in the tree.
func (t *Tree) Names() []string {
	set := make(map[string]bool)
	for _, n := range t.nodes {
		set[n.Name] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
