package schema

import (
	"strings"
	"testing"
)

// FuzzParseSpec: ParseSpec never panics, every tree it accepts is well
// formed, and the tree's String — the spec syntax without datatypes —
// parses back to the same String.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"book(title,author(first,last),isbn@)",
		"lib(address,book(authorName,data(title),shelf))",
		"book(title:string,author@,isbn@:int)",
		"a(b(c(d(e))),f(g,h))",
		" a ( b , c ) ",
		"a(b@(c))",
		"a(",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tree, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) returned an invalid tree: %v", spec, err)
		}
		again, err := ParseSpec(tree.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not parse: %v", spec, tree.String(), err)
		}
		if again.String() != tree.String() {
			t.Fatalf("ParseSpec(%q): String %q parses back as %q", spec, tree.String(), again.String())
		}
	})
}

// FuzzReadRepository: ReadRepository never panics, every repository it
// accepts is well formed, and WriteRepository → ReadRepository reproduces
// it: writing the read-back copy gives the same bytes.
func FuzzReadRepository(f *testing.F) {
	r := NewRepository()
	r.MustAdd(MustParseSpec("lib(book(title,author),member(name))"))
	r.MustAdd(MustParseSpec("store(book(title:string,isbn@:int),order(id))"))
	var valid strings.Builder
	if err := WriteRepository(&valid, r); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(encodeHeader + "\ntree \"t\"\n0 e \"r\"\n1 a \"x\" \"int\"\n")
	f.Add(encodeHeader + "\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		repo, err := ReadRepository(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := repo.Validate(); err != nil {
			t.Fatalf("ReadRepository accepted an invalid repository: %v", err)
		}
		var first, second strings.Builder
		if err := WriteRepository(&first, repo); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRepository(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("ReadRepository rejects its own WriteRepository output: %v\n%s", err, first.String())
		}
		if err := WriteRepository(&second, back); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("round trip changed the repository:\n%s\nbecame\n%s", first.String(), second.String())
		}
	})
}
