package query

import "testing"

// FuzzQueryParse: Parse never panics, and an accepted query's String parses
// back to the same String.
func FuzzQueryParse(f *testing.F) {
	for _, s := range []string{
		`/book[title="Iliad"]/author`,
		`/a[b/c="deep"]/d`,
		`/a[b='single']`,
		`/a[b="x"][c="y"]`,
		`/a[b="x]`,
		"//a",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		again, err := Parse(q.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", src, q.String(), err)
		}
		if again.String() != q.String() {
			t.Fatalf("String not stable: %q -> %q", q.String(), again.String())
		}
	})
}
