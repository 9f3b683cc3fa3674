package xmldoc

import "testing"

// FuzzInferSchema: Infer never panics, and every tree it infers is well
// formed.
func FuzzInferSchema(f *testing.F) {
	for _, s := range []string{
		`
<lib>
  <address>Main St</address>
  <book isbn="1"><title>Iliad</title><author>Homer</author></book>
  <book isbn="2"><title>Odyssey</title><author>Homer</author><year>800</year></book>
</lib>`,
		`<r><e a="1" b="2"/><e a="3" c="4"/></r>`,
		`<r xmlns="http://x" xmlns:p="http://y"><p:e p:a="1"/></r>`,
		`<?xml version="1.0"?><!-- c --><r><![CDATA[x]]><e/></r>`,
		`<r><e>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		tr, err := inferString(doc)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Infer returned an invalid tree: %v", err)
		}
	})
}
