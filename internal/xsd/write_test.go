package xsd

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"bellflower/internal/schema"
)

func TestWriteParseRoundTrip(t *testing.T) {
	orig := schema.MustParseSpec("book(isbn@:token,title:string,author(first,last))")
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	trees, err := parseString(buf.String())
	if err != nil {
		t.Fatalf("Parse(Write()): %v\n%s", err, buf.String())
	}
	if len(trees) != 1 {
		t.Fatalf("trees = %d", len(trees))
	}
	if got := trees[0].String(); got != orig.String() {
		t.Errorf("round trip = %q, want %q", got, orig.String())
	}
	if got := trees[0].Find("title").Type; got != "string" {
		t.Errorf("title type = %q", got)
	}
	if got := trees[0].Find("isbn").Type; got != "token" {
		t.Errorf("isbn type = %q", got)
	}
}

func TestWriteMultipleTrees(t *testing.T) {
	a := schema.MustParseSpec("order(item)")
	b := schema.MustParseSpec("invoice(total)")
	var buf bytes.Buffer
	if err := Write(&buf, a, b); err != nil {
		t.Fatalf("Write: %v", err)
	}
	trees, err := parseString(buf.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(trees) != 2 {
		t.Fatalf("trees = %d", len(trees))
	}
}

func TestWriteErrors(t *testing.T) {
	if err := Write(&bytes.Buffer{}); err == nil {
		t.Errorf("empty tree list accepted")
	}
}

func TestWriteEscapesNames(t *testing.T) {
	b := schema.NewBuilder("t")
	r := b.Root("a<b")
	b.Element(r, "c&d")
	tr := b.MustTree()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out := buf.String()
	if strings.Contains(out, "a<b") || !strings.Contains(out, "a&lt;b") {
		t.Errorf("name not escaped:\n%s", out)
	}
}

// sig canonicalizes a tree for comparison: attributes sort before element
// children (the one reordering XSD forces), and among attributes order is
// preserved.
func sig(n *schema.Node) string {
	var attrs, elems []string
	for _, c := range n.Children() {
		if c.Kind == schema.KindAttribute {
			attrs = append(attrs, sig(c))
		} else {
			elems = append(elems, sig(c))
		}
	}
	sort.Strings(attrs)
	kind := "e"
	if n.Kind == schema.KindAttribute {
		kind = "a"
	}
	return kind + ":" + n.Name + ":" + n.Type + "(" + strings.Join(append(attrs, elems...), ",") + ")"
}

// Property: Write→Parse preserves the canonical structure of random trees.
func TestWriteParseRoundTripProperty(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	types := []string{"", "string", "integer", "date"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := schema.NewBuilder("t")
		nodes := []*schema.Node{b.Root(names[rng.Intn(len(names))])}
		n := 1 + rng.Intn(25)
		for i := 1; i < n; i++ {
			p := nodes[rng.Intn(len(nodes))]
			for p.Kind == schema.KindAttribute {
				p = nodes[rng.Intn(len(nodes))]
			}
			name := names[rng.Intn(len(names))]
			typ := types[rng.Intn(len(types))]
			var c *schema.Node
			if rng.Intn(4) == 0 {
				c = b.TypedAttribute(p, name, typ)
			} else {
				c = b.TypedElement(p, name, typ)
			}
			nodes = append(nodes, c)
		}
		tr := b.MustTree()
		// Inner nodes lose declared types in XSD (complex content); clear
		// them on the reference before comparing.
		for _, nd := range tr.Nodes() {
			if !nd.IsLeaf() {
				nd.Type = ""
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		back, err := parseString(buf.String())
		if err != nil || len(back) != 1 {
			return false
		}
		return sig(back[0].Root()) == sig(tr.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
