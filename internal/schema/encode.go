package schema

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The repository text format is line-oriented and diff-friendly:
//
//	bellflower-repository 1
//	tree <name>
//	<depth> <kind> <name> [<type>]
//	...
//
// Node lines appear in preorder; depth is the node's depth (root = 0),
// kind is "e" (element) or "a" (attribute). Names and types are quoted
// with strconv so arbitrary characters round-trip.

const encodeHeader = "bellflower-repository 1"

// WriteRepository serializes the repository to w in the line-oriented text
// format. Large repositories load orders of magnitude faster from this
// format than by re-parsing the original XSD/DTD files.
func WriteRepository(w io.Writer, r *Repository) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, encodeHeader)
	for _, t := range r.Trees() {
		fmt.Fprintf(bw, "tree %s\n", strconv.Quote(t.Name))
		for _, n := range t.Nodes() {
			kind := "e"
			if n.Kind == KindAttribute {
				kind = "a"
			}
			if n.Type != "" {
				fmt.Fprintf(bw, "%d %s %s %s\n", n.Depth, kind, strconv.Quote(n.Name), strconv.Quote(n.Type))
			} else {
				fmt.Fprintf(bw, "%d %s %s\n", n.Depth, kind, strconv.Quote(n.Name))
			}
		}
	}
	return bw.Flush()
}

// ReadRepository parses the text format written by WriteRepository.
func ReadRepository(r io.Reader) (*Repository, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, errors.New("schema: empty repository stream")
	}
	if sc.Text() != encodeHeader {
		return nil, fmt.Errorf("schema: bad repository header %q", sc.Text())
	}
	repo := NewRepository()
	var (
		b     *Builder
		stack []*Node // stack[d] = last node at depth d
		line  = 1
	)
	flush := func() error {
		if b == nil {
			return nil
		}
		t, err := b.Tree()
		if err != nil {
			return err
		}
		b = nil
		stack = stack[:0]
		return repo.Add(t)
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(text, "tree "); ok {
			if err := flush(); err != nil {
				return nil, err
			}
			name, err := strconv.Unquote(strings.TrimSpace(rest))
			if err != nil {
				return nil, fmt.Errorf("schema: line %d: bad tree name: %v", line, err)
			}
			b = NewBuilder(name)
			continue
		}
		if b == nil {
			return nil, fmt.Errorf("schema: line %d: node before any tree header", line)
		}
		depth, kind, name, typ, err := parseNodeLine(text)
		if err != nil {
			return nil, fmt.Errorf("schema: line %d: %v", line, err)
		}
		if depth > len(stack) || (depth == 0 && len(stack) > 0) {
			return nil, fmt.Errorf("schema: line %d: depth %d does not follow preorder", line, depth)
		}
		if depth > 0 && stack[depth-1].Kind == KindAttribute {
			return nil, fmt.Errorf("schema: line %d: attribute %q cannot have children", line, stack[depth-1].Name)
		}
		var n *Node
		switch {
		case depth == 0:
			if kind == KindAttribute {
				return nil, fmt.Errorf("schema: line %d: root cannot be an attribute", line)
			}
			n = b.Root(name)
			n.Type = typ
		case kind == KindAttribute:
			n = b.TypedAttribute(stack[depth-1], name, typ)
		default:
			n = b.TypedElement(stack[depth-1], name, typ)
		}
		stack = append(stack[:depth], n)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if repo.NumTrees() == 0 {
		return nil, errors.New("schema: repository stream contains no trees")
	}
	return repo, nil
}

func parseNodeLine(text string) (depth int, kind NodeKind, name, typ string, err error) {
	sp := strings.IndexByte(text, ' ')
	if sp < 0 {
		return 0, 0, "", "", fmt.Errorf("malformed node line %q", text)
	}
	depth, err = strconv.Atoi(text[:sp])
	if err != nil || depth < 0 {
		return 0, 0, "", "", fmt.Errorf("bad depth in %q", text)
	}
	rest := strings.TrimSpace(text[sp+1:])
	switch {
	case strings.HasPrefix(rest, "e "):
		kind = KindElement
	case strings.HasPrefix(rest, "a "):
		kind = KindAttribute
	default:
		return 0, 0, "", "", fmt.Errorf("bad node kind in %q", text)
	}
	rest = strings.TrimSpace(rest[2:])
	name, rest, err = unquoteToken(rest)
	if err != nil {
		return 0, 0, "", "", fmt.Errorf("bad name in %q: %v", text, err)
	}
	rest = strings.TrimSpace(rest)
	if rest != "" {
		typ, rest, err = unquoteToken(rest)
		if err != nil || strings.TrimSpace(rest) != "" {
			return 0, 0, "", "", fmt.Errorf("bad type in %q", text)
		}
	}
	return depth, kind, name, typ, nil
}

// unquoteToken consumes one leading Go-quoted string from s.
func unquoteToken(s string) (val, rest string, err error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", errors.New("expected quoted token")
	}
	// Find the closing quote, honouring backslash escapes.
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			val, err = strconv.Unquote(s[:i+1])
			return val, s[i+1:], err
		}
	}
	return "", "", errors.New("unterminated quoted token")
}
