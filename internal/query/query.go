// Package query implements the personal-schema querying step the paper's
// introduction motivates: after the user asserts a schema mapping, a query
// written against the personal schema (e.g. /book[title="Iliad"]/author) is
// rewritten into a query over the real repository schema.
//
// A small XPath subset is supported: absolute child-step paths with
// optional equality predicates, /a/b[c="v"]/d. Rewriting resolves each step
// to a personal-schema node, replaces it with its mapping image, and emits
// the repository-side path between consecutive images (upward moves render
// as "..", mapping the paper's edge-to-path semantics back into XPath).
package query

import (
	"fmt"
	"strings"

	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/schema"
)

// Step is one location step of a parsed query.
type Step struct {
	// Name is the element name of the step.
	Name string

	// Predicates are equality filters on relative child paths.
	Predicates []Predicate
}

// Predicate is an equality comparison [path="value"] relative to its step.
type Predicate struct {
	Path  []string // relative child path, e.g. ["title"]
	Value string
}

// Query is a parsed absolute path query.
type Query struct {
	Steps []Step
}

// String renders the query back to XPath syntax.
func (q *Query) String() string {
	var b strings.Builder
	for _, s := range q.Steps {
		b.WriteString("/")
		b.WriteString(s.Name)
		for _, p := range s.Predicates {
			writePredicate(&b, strings.Join(p.Path, "/"), p.Value)
		}
	}
	return b.String()
}

// writePredicate appends [path=value] with value as an XPath string
// literal: XPath has no escapes, so a value holding a double quote goes in
// single quotes (Parse never yields a value holding both).
func writePredicate(b *strings.Builder, path, value string) {
	quote := `"`
	if strings.Contains(value, `"`) {
		quote = "'"
	}
	b.WriteString("[" + path + "=" + quote + value + quote + "]")
}

// Parse parses an absolute XPath-subset query: /step[pred]/step/...
func Parse(src string) (*Query, error) {
	if !strings.HasPrefix(src, "/") {
		return nil, fmt.Errorf("query: %q is not an absolute path", src)
	}
	p := &parser{src: src}
	q := &Query{}
	for p.pos < len(p.src) {
		if p.src[p.pos] != '/' {
			return nil, fmt.Errorf("query: expected '/' at offset %d in %q", p.pos, src)
		}
		p.pos++
		step, err := p.step()
		if err != nil {
			return nil, err
		}
		q.Steps = append(q.Steps, step)
	}
	if len(q.Steps) == 0 {
		return nil, fmt.Errorf("query: empty query %q", src)
	}
	return q, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) name() (string, error) {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '/' || c == '[' || c == ']' || c == '=' || c == '"' || c == '\'' {
			break
		}
		p.pos++
	}
	n := strings.TrimSpace(p.src[start:p.pos])
	if n == "" {
		return "", fmt.Errorf("query: expected name at offset %d in %q", start, p.src)
	}
	return n, nil
}

func (p *parser) step() (Step, error) {
	name, err := p.name()
	if err != nil {
		return Step{}, err
	}
	st := Step{Name: name}
	for p.pos < len(p.src) && p.src[p.pos] == '[' {
		p.pos++
		pred, err := p.predicate()
		if err != nil {
			return Step{}, err
		}
		st.Predicates = append(st.Predicates, pred)
	}
	return st, nil
}

func (p *parser) predicate() (Predicate, error) {
	var path []string
	for {
		n, err := p.name()
		if err != nil {
			return Predicate{}, err
		}
		path = append(path, n)
		if p.pos < len(p.src) && p.src[p.pos] == '/' {
			p.pos++
			continue
		}
		break
	}
	if p.pos >= len(p.src) || p.src[p.pos] != '=' {
		return Predicate{}, fmt.Errorf("query: expected '=' in predicate at offset %d", p.pos)
	}
	p.pos++
	if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		return Predicate{}, fmt.Errorf("query: expected quoted value at offset %d", p.pos)
	}
	quote := p.src[p.pos]
	p.pos++
	end := strings.IndexByte(p.src[p.pos:], quote)
	if end < 0 {
		return Predicate{}, fmt.Errorf("query: unterminated string in %q", p.src)
	}
	val := p.src[p.pos : p.pos+end]
	p.pos += end + 1
	if p.pos >= len(p.src) || p.src[p.pos] != ']' {
		return Predicate{}, fmt.Errorf("query: expected ']' at offset %d", p.pos)
	}
	p.pos++
	return Predicate{Path: path, Value: val}, nil
}

// Rewrite translates a personal-schema query into a repository query using
// a discovered mapping. Every step must resolve to a node of the personal
// schema along a root path; predicates resolve relative to their step.
func Rewrite(q *Query, personal *schema.Tree, m mapgen.Mapping, ix *labeling.Index) (string, error) {
	if len(m.Images) != personal.Len() {
		return "", fmt.Errorf("query: mapping does not cover the personal schema")
	}
	// Resolve steps against the personal schema.
	cur := personal.Root()
	if cur.Name != q.Steps[0].Name {
		return "", fmt.Errorf("query: first step %q does not match personal root %q",
			q.Steps[0].Name, cur.Name)
	}
	nodes := []*schema.Node{cur}
	for _, st := range q.Steps[1:] {
		next := childByName(cur, st.Name)
		if next == nil {
			return "", fmt.Errorf("query: step %q is not a child of %q in the personal schema",
				st.Name, cur.Name)
		}
		nodes = append(nodes, next)
		cur = next
	}

	var b strings.Builder
	// First step: absolute repository path of the image's root walk.
	first := m.Images[nodes[0].Pre]
	for _, name := range first.Path() {
		b.WriteString("/")
		b.WriteString(name)
	}
	if err := writePredicates(&b, q.Steps[0], nodes[0], m, ix); err != nil {
		return "", err
	}
	// Subsequent steps: relative path between consecutive images.
	for i := 1; i < len(nodes); i++ {
		from := m.Images[nodes[i-1].Pre]
		to := m.Images[nodes[i].Pre]
		if err := writeRelative(&b, from, to, ix); err != nil {
			return "", err
		}
		if err := writePredicates(&b, q.Steps[i], nodes[i], m, ix); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// childByName returns the first child with the given name.
func childByName(n *schema.Node, name string) *schema.Node {
	for _, c := range n.Children() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// writeRelative appends the XPath steps from one repository node to
// another: ".." per upward edge to the LCA, then child names downward.
func writeRelative(b *strings.Builder, from, to *schema.Node, ix *labeling.Index) error {
	if !ix.SameTree(from, to) {
		return fmt.Errorf("query: mapping images span different trees")
	}
	l := ix.LCA(from, to)
	for n := from; n != l; n = n.Parent() {
		b.WriteString("/..")
	}
	// Collect the downward segment.
	var down []*schema.Node
	for n := to; n != l; n = n.Parent() {
		down = append(down, n)
	}
	for i := len(down) - 1; i >= 0; i-- {
		b.WriteString("/")
		b.WriteString(down[i].Name)
	}
	return nil
}

func writePredicates(b *strings.Builder, st Step, personalNode *schema.Node, m mapgen.Mapping, ix *labeling.Index) error {
	for _, pred := range st.Predicates {
		// Resolve the predicate path within the personal schema.
		cur := personalNode
		for _, name := range pred.Path {
			next := childByName(cur, name)
			if next == nil {
				return fmt.Errorf("query: predicate path %q not in the personal schema under %q",
					strings.Join(pred.Path, "/"), personalNode.Name)
			}
			cur = next
		}
		var rel strings.Builder
		if err := writeRelative(&rel, m.Images[personalNode.Pre], m.Images[cur.Pre], ix); err != nil {
			return err
		}
		// Drop the leading slash of the relative path inside a predicate.
		relPath := strings.TrimPrefix(rel.String(), "/")
		writePredicate(b, relPath, pred.Value)
	}
	return nil
}
