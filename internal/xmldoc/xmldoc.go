// Package xmldoc infers a schema tree from an XML instance document.
//
// Schema matching systems exploit "external data sources such as data
// instances" (Sec. 1 of the paper); for repositories harvested from the
// web, many sources publish documents but no schema. Inference merges
// repeated sibling elements by name — <book/><book/> under <lib/> becomes
// one book child — so the result is a schema tree (element declarations),
// not a document tree.
package xmldoc

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"bellflower/internal/schema"
)

// MaxDepth bounds the inferred tree depth; documents nesting deeper are
// rejected (schema trees are non-recursive, and a document this deep is
// almost certainly exercising a recursive schema).
const MaxDepth = 64

// Infer reads one XML document and returns the inferred schema tree.
func Infer(r io.Reader) (*schema.Tree, error) {
	dec := xml.NewDecoder(r)
	var root *inferred
	var stack []*inferred
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) >= MaxDepth {
				return nil, fmt.Errorf("xmldoc: document deeper than %d", MaxDepth)
			}
			name := t.Name.Local
			var node *inferred
			if len(stack) == 0 {
				if root == nil {
					root = newInferred(name)
				} else if root.name != name {
					return nil, fmt.Errorf("xmldoc: multiple document roots %q and %q", root.name, name)
				}
				node = root
			} else {
				node = stack[len(stack)-1].child(name)
			}
			for _, a := range t.Attr {
				if strings.HasPrefix(a.Name.Space, "xmlns") || a.Name.Local == "xmlns" || a.Name.Space == "xmlns" {
					continue // namespace declarations are not schema attributes
				}
				node.addAttr(a.Name.Local)
			}
			stack = append(stack, node)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldoc: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmldoc: document has no elements")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmldoc: unclosed elements at EOF")
	}
	b := schema.NewBuilder("inferred:" + root.name)
	build(b, nil, root)
	return b.Tree()
}

// inferred is a merged element declaration under construction.
type inferred struct {
	name      string
	attrs     []string
	attrSet   map[string]bool
	children  []*inferred
	childByNm map[string]*inferred
}

func newInferred(name string) *inferred {
	return &inferred{
		name:      name,
		attrSet:   map[string]bool{},
		childByNm: map[string]*inferred{},
	}
}

// child returns the merged child declaration with the given name,
// creating it on first sight.
func (n *inferred) child(name string) *inferred {
	if c, ok := n.childByNm[name]; ok {
		return c
	}
	c := newInferred(name)
	n.childByNm[name] = c
	n.children = append(n.children, c)
	return c
}

func (n *inferred) addAttr(name string) {
	if n.attrSet[name] {
		return
	}
	n.attrSet[name] = true
	n.attrs = append(n.attrs, name)
}

func build(b *schema.Builder, parent *schema.Node, in *inferred) {
	var node *schema.Node
	if parent == nil {
		node = b.Root(in.name)
	} else {
		node = b.Element(parent, in.name)
	}
	for _, a := range in.attrs {
		b.Attribute(node, a)
	}
	for _, c := range in.children {
		build(b, node, c)
	}
}
