package schema

import (
	"errors"
	"fmt"
)

// Builder constructs a Tree incrementally. The zero value is not usable; use
// NewBuilder. Builders are not safe for concurrent use.
//
//	b := schema.NewBuilder("books")
//	book := b.Root("book")
//	b.Element(book, "title")
//	author := b.Element(book, "author")
//	b.Attribute(author, "id")
//	t, err := b.Tree()
type Builder struct {
	name  string
	root  *Node
	count int
	done  bool
}

// NewBuilder returns a Builder for a tree with the given label.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Root creates the root element. It panics if a root already exists.
func (b *Builder) Root(name string) *Node {
	if b.root != nil {
		panic("schema: Builder.Root called twice")
	}
	return b.add(nil, name, KindElement, "")
}

// Element appends an element child to parent and returns it.
func (b *Builder) Element(parent *Node, name string) *Node {
	return b.add(parent, name, KindElement, "")
}

// TypedElement appends an element child with a declared datatype.
func (b *Builder) TypedElement(parent *Node, name, typ string) *Node {
	return b.add(parent, name, KindElement, typ)
}

// Attribute appends an attribute child to parent and returns it. Attributes
// are always leaves; adding children to an attribute panics.
func (b *Builder) Attribute(parent *Node, name string) *Node {
	return b.add(parent, name, KindAttribute, "")
}

// TypedAttribute appends an attribute child with a declared datatype.
func (b *Builder) TypedAttribute(parent *Node, name, typ string) *Node {
	return b.add(parent, name, KindAttribute, typ)
}

func (b *Builder) add(parent *Node, name string, kind NodeKind, typ string) *Node {
	if b.done {
		panic("schema: Builder used after Tree()")
	}
	if parent == nil && b.root != nil {
		panic("schema: second root added")
	}
	if parent != nil && parent.Kind == KindAttribute {
		panic("schema: attribute node cannot have children")
	}
	n := &Node{ID: -1, Name: name, Kind: kind, Type: typ, parent: parent}
	if parent == nil {
		b.root = n
	} else {
		parent.children = append(parent.children, n)
	}
	b.count++
	return n
}

// Size returns the number of nodes added so far.
func (b *Builder) Size() int { return b.count }

// Tree finalizes the builder: it assigns preorder and depth labels and
// returns the immutable tree. The builder cannot be used afterwards.
func (b *Builder) Tree() (*Tree, error) {
	if b.done {
		return nil, errors.New("schema: Builder.Tree called twice")
	}
	if b.root == nil {
		return nil, errors.New("schema: tree has no root")
	}
	b.done = true
	t := &Tree{ID: -1, Name: b.name, root: b.root, nodes: make([]*Node, 0, b.count)}
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		n.tree = t
		n.Depth = depth
		n.Pre = len(t.nodes)
		t.nodes = append(t.nodes, n)
		for _, c := range n.children {
			rec(c, depth+1)
		}
	}
	rec(b.root, 0)
	if len(t.nodes) != b.count {
		return nil, fmt.Errorf("schema: built %d nodes, labelled %d", b.count, len(t.nodes))
	}
	return t, nil
}

// MustTree is like Tree but panics on error; intended for tests and
// hand-written fixtures.
func (b *Builder) MustTree() *Tree {
	t, err := b.Tree()
	if err != nil {
		panic(err)
	}
	return t
}
