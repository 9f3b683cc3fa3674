// Package xsd parses a practical subset of W3C XML Schema (XSD) into schema
// trees — the repository ingestion path for real schemas. The paper's
// repository was built from XML schemas and DTDs discovered on the web; this
// parser covers the constructs those files commonly use:
//
//   - top-level xs:element declarations (each becomes one tree root; one
//     schema file can therefore yield several trees, matching the paper's
//     note that "one schema can have multiple roots");
//   - inline and named xs:complexType definitions;
//   - xs:sequence, xs:choice and xs:all content models (arbitrarily
//     nested; particle semantics beyond child structure are ignored, as
//     schema matchers model structure only);
//   - xs:attribute declarations, inline or within named types;
//   - element references (ref=) to top-level elements;
//   - built-in simple types recorded as node datatypes (xs: prefix
//     stripped).
//
// Recursive type or element structures are rejected: the paper explicitly
// uses non-recursive schemas, and schema trees cannot represent cycles.
package xsd

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"bellflower/internal/schema"
)

// MaxDepth bounds expansion depth as a safety net against pathological
// (non-recursive but deeply nested) schemas.
const MaxDepth = 64

// Parse reads one XSD document and returns its trees, one per top-level
// element declaration.
func Parse(r io.Reader) ([]*schema.Tree, error) {
	var doc xsdSchema
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	if !strings.EqualFold(doc.XMLName.Local, "schema") {
		return nil, fmt.Errorf("xsd: root element is %q, want schema", doc.XMLName.Local)
	}
	p := &parser{
		types:    map[string]*xsdComplexType{},
		elements: map[string]*xsdElement{},
	}
	for i := range doc.ComplexTypes {
		ct := &doc.ComplexTypes[i]
		if ct.Name == "" {
			return nil, fmt.Errorf("xsd: top-level complexType without name")
		}
		if _, dup := p.types[ct.Name]; dup {
			return nil, fmt.Errorf("xsd: duplicate complexType %q", ct.Name)
		}
		p.types[ct.Name] = ct
	}
	for i := range doc.Elements {
		el := &doc.Elements[i]
		if el.Name == "" {
			return nil, fmt.Errorf("xsd: top-level element without name")
		}
		if _, dup := p.elements[el.Name]; dup {
			return nil, fmt.Errorf("xsd: duplicate top-level element %q", el.Name)
		}
		p.elements[el.Name] = el
	}
	var trees []*schema.Tree
	for i := range doc.Elements {
		el := &doc.Elements[i]
		b := schema.NewBuilder(el.Name)
		root := b.Root(el.Name)
		if err := p.expand(b, root, el, 0, map[string]bool{}); err != nil {
			return nil, err
		}
		t, err := b.Tree()
		if err != nil {
			return nil, err
		}
		trees = append(trees, t)
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("xsd: schema declares no top-level elements")
	}
	return trees, nil
}

type parser struct {
	types    map[string]*xsdComplexType
	elements map[string]*xsdElement
}

// expand fills node's children from the element's content model. active
// tracks named types and element refs on the current path for recursion
// detection.
func (p *parser) expand(b *schema.Builder, node *schema.Node, el *xsdElement, depth int, active map[string]bool) error {
	if depth > MaxDepth {
		return fmt.Errorf("xsd: element %q exceeds maximum depth %d", el.Name, MaxDepth)
	}
	ct := el.ComplexType
	if ct == nil && el.Type != "" {
		typ := stripPrefix(el.Type)
		if named, ok := p.types[typ]; ok {
			key := "type:" + typ
			if active[key] {
				return fmt.Errorf("xsd: recursive complexType %q", typ)
			}
			active[key] = true
			defer delete(active, key)
			ct = named
		} else {
			// A simple (built-in or unknown) type: leaf element.
			node.Type = typ
			return nil
		}
	}
	if ct == nil {
		return nil // element with neither type nor inline content: leaf
	}
	for i := range ct.Attributes {
		a := &ct.Attributes[i]
		if a.Name == "" {
			continue
		}
		b.TypedAttribute(node, a.Name, stripPrefix(a.Type))
	}
	for _, g := range ct.groups() {
		if err := p.expandGroup(b, node, g, depth+1, active); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) expandGroup(b *schema.Builder, node *schema.Node, g *xsdGroup, depth int, active map[string]bool) error {
	if depth > MaxDepth {
		return fmt.Errorf("xsd: content model exceeds maximum depth %d", MaxDepth)
	}
	for i := range g.Elements {
		el := &g.Elements[i]
		if el.Ref != "" {
			ref := stripPrefix(el.Ref)
			target, ok := p.elements[ref]
			if !ok {
				return fmt.Errorf("xsd: element ref %q has no target", el.Ref)
			}
			key := "elem:" + ref
			if active[key] {
				return fmt.Errorf("xsd: recursive element reference %q", ref)
			}
			active[key] = true
			child := b.Element(node, target.Name)
			if err := p.expand(b, child, target, depth+1, active); err != nil {
				return err
			}
			delete(active, key)
			continue
		}
		if el.Name == "" {
			return fmt.Errorf("xsd: element without name or ref under %q", node.Name)
		}
		child := b.Element(node, el.Name)
		if err := p.expand(b, child, el, depth+1, active); err != nil {
			return err
		}
	}
	for i := range g.Sequences {
		if err := p.expandGroup(b, node, &g.Sequences[i], depth+1, active); err != nil {
			return err
		}
	}
	for i := range g.Choices {
		if err := p.expandGroup(b, node, &g.Choices[i], depth+1, active); err != nil {
			return err
		}
	}
	for i := range g.Alls {
		if err := p.expandGroup(b, node, &g.Alls[i], depth+1, active); err != nil {
			return err
		}
	}
	return nil
}

// stripPrefix removes a namespace prefix ("xs:string" -> "string").
func stripPrefix(s string) string {
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// xsdSchema is the document root. Namespace handling: encoding/xml matches
// local names, so any prefix bound to the XML Schema namespace works.
type xsdSchema struct {
	XMLName      xml.Name         `xml:"schema"`
	Elements     []xsdElement     `xml:"element"`
	ComplexTypes []xsdComplexType `xml:"complexType"`
}

type xsdElement struct {
	Name        string          `xml:"name,attr"`
	Type        string          `xml:"type,attr"`
	Ref         string          `xml:"ref,attr"`
	ComplexType *xsdComplexType `xml:"complexType"`
}

type xsdComplexType struct {
	Name       string         `xml:"name,attr"`
	Sequence   *xsdGroup      `xml:"sequence"`
	Choice     *xsdGroup      `xml:"choice"`
	All        *xsdGroup      `xml:"all"`
	Attributes []xsdAttribute `xml:"attribute"`
}

// groups returns the type's non-nil content groups.
func (ct *xsdComplexType) groups() []*xsdGroup {
	var out []*xsdGroup
	for _, g := range []*xsdGroup{ct.Sequence, ct.Choice, ct.All} {
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

type xsdGroup struct {
	Elements  []xsdElement `xml:"element"`
	Sequences []xsdGroup   `xml:"sequence"`
	Choices   []xsdGroup   `xml:"choice"`
	Alls      []xsdGroup   `xml:"all"`
}

type xsdAttribute struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"`
}
