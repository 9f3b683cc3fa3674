package xmldoc

import (
	"strings"
	"testing"

	"bellflower/internal/schema"
)

// inferString is Infer over a string.
func inferString(s string) (*schema.Tree, error) { return Infer(strings.NewReader(s)) }

func TestInferSimple(t *testing.T) {
	tr, err := inferString(`
<lib>
  <address>Main St</address>
  <book isbn="1"><title>Iliad</title><author>Homer</author></book>
  <book isbn="2"><title>Odyssey</title><author>Homer</author><year>800</year></book>
</lib>`)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Repeated <book> siblings merge; the second occurrence contributes
	// the extra <year> child.
	if got := tr.String(); got != "lib(address,book(isbn@,title,author,year))" {
		t.Errorf("tree = %q", got)
	}
}

func TestInferAttributesMergedOnce(t *testing.T) {
	tr, err := inferString(`<r><e a="1" b="2"/><e a="3" c="4"/></r>`)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if got := tr.String(); got != "r(e(a@,b@,c@))" {
		t.Errorf("tree = %q", got)
	}
}

func TestInferNamespaceDeclarationsSkipped(t *testing.T) {
	tr, err := inferString(`<r xmlns="http://x" xmlns:p="http://y"><p:e p:a="1"/></r>`)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if got := tr.String(); got != "r(e(a@))" {
		t.Errorf("tree = %q", got)
	}
}

func TestInferDeepMerge(t *testing.T) {
	tr, err := inferString(`
<orders>
  <order><item><sku>a</sku></item></order>
  <order><item><sku>b</sku><qty>2</qty></item><total>9</total></order>
</orders>`)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if got := tr.String(); got != "orders(order(item(sku,qty),total))" {
		t.Errorf("tree = %q", got)
	}
}

func TestInferErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      ``,
		"no element": `<!-- only a comment -->`,
		"malformed":  `<a><b></a>`,
		"two roots":  `<a/><b/>`,
	}
	for name, src := range cases {
		if _, err := inferString(src); err == nil {
			t.Errorf("%s: error expected", name)
		}
	}
}

func TestInferDepthBound(t *testing.T) {
	var b strings.Builder
	for i := 0; i < MaxDepth+2; i++ {
		b.WriteString("<e>")
	}
	for i := 0; i < MaxDepth+2; i++ {
		b.WriteString("</e>")
	}
	if _, err := inferString(b.String()); err == nil {
		t.Errorf("over-deep document accepted")
	}
}

func TestInferredTreeIsMatchable(t *testing.T) {
	// End-to-end sanity: an inferred tree should slot into a repository.
	tr, err := inferString(`<contact><name>x</name><email>y</email></contact>`)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if tr.Len() != 3 || tr.Root().Name != "contact" {
		t.Errorf("tree = %q", tr.String())
	}
	if tr.Name != "inferred:contact" {
		t.Errorf("tree label = %q", tr.Name)
	}
}
