// Package schema defines the schema-graph data model from Def. 1 of the
// paper: labelled trees whose nodes carry (property, value) pairs such as
// element names and datatypes. A personal schema is a single Tree; a
// repository is a forest of Trees.
//
// The package also provides construction (Builder, ParseSpec), traversal,
// validation and serialization utilities that the rest of the system builds
// on. All structures are immutable after Tree.freeze; concurrent readers
// need no locking.
package schema

import "fmt"

// NodeKind distinguishes XML element nodes from attribute nodes. Attributes
// are modelled as leaf children of their owning element, mirroring how the
// paper counts "element (attribute) nodes".
type NodeKind uint8

const (
	// KindElement is an XML element declaration.
	KindElement NodeKind = iota
	// KindAttribute is an XML attribute declaration.
	KindAttribute
)

// String returns "element" or "attribute".
func (k NodeKind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindAttribute:
		return "attribute"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Node is a single schema element or attribute. Nodes are created through a
// Builder and are owned by exactly one Tree. The exported index fields are
// assigned when the tree is frozen and are stable for the lifetime of the
// tree.
type Node struct {
	// ID is the node's position in Repository.Nodes once the tree has been
	// added to a repository, or -1 before that. It uniquely identifies the
	// node within a repository.
	ID int

	// Name is the element or attribute name (the paper's name property).
	Name string

	// Kind says whether the node is an element or an attribute.
	Kind NodeKind

	// Type is the declared datatype ("string", "integer", ...); empty when
	// unknown. Only used by the optional datatype matcher.
	Type string

	// Pre is the node's preorder rank within its tree (root = 0).
	Pre int

	// Depth is the number of edges from the tree root (root = 0).
	Depth int

	parent   *Node
	children []*Node
	tree     *Tree
}

// Parent returns the node's parent, or nil for a tree root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children in document order. The returned slice
// must not be modified.
func (n *Node) Children() []*Node { return n.children }

// Tree returns the tree that owns the node.
func (n *Node) Tree() *Tree { return n.tree }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// Path returns the node names from the tree root down to the node, e.g.
// ["lib", "book", "title"].
func (n *Node) Path() []string {
	var rev []string
	for m := n; m != nil; m = m.parent {
		rev = append(rev, m.Name)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AppendPath appends the slash-separated root-to-node name path, e.g.
// "/lib/book/title", to dst and returns the extended slice. One upward
// walk sizes the path and a second fills it from the end, so a dst with
// enough spare capacity sees no allocation.
func (n *Node) AppendPath(dst []byte) []byte {
	size := 0
	for m := n; m != nil; m = m.parent {
		size += 1 + len(m.Name)
	}
	end := len(dst) + size
	if end > cap(dst) {
		grown := make([]byte, end, end+end/4)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:end]
	}
	for m := n; m != nil; m = m.parent {
		end -= len(m.Name)
		copy(dst[end:], m.Name)
		end--
		dst[end] = '/'
	}
	return dst
}

// PathString returns the slash-separated root-to-node name path, e.g.
// "/lib/book/title".
func (n *Node) PathString() string {
	var buf [128]byte // paths this short are built on the stack: one allocation, the string
	return string(n.AppendPath(buf[:0]))
}

// String renders the node as name#id for diagnostics.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s#%d", n.Name, n.ID)
}
