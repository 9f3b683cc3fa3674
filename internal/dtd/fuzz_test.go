package dtd

import "testing"

// FuzzParseDTD: Parse never panics, and every tree it accepts is well
// formed.
func FuzzParseDTD(f *testing.F) {
	for _, s := range []string{
		`
<!ELEMENT book (title, author+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (first, last?)>
<!ELEMENT first (#PCDATA)>
<!ELEMENT last (#PCDATA)>
<!ATTLIST book isbn CDATA #REQUIRED>
`,
		`<!ELEMENT order (item*)> <!ELEMENT item (#PCDATA)> <!ELEMENT invoice (total)> <!ELEMENT total (#PCDATA)>`,
		`<!ELEMENT a (b, c)> <!ELEMENT b (#PCDATA)> <!ATTLIST a x CDATA #IMPLIED>`,
		`<!-- c --> <!ENTITY % e "x"> <!ELEMENT a ((b | c)*, d?)> <!ELEMENT d EMPTY> <!ELEMENT b ANY>`,
		`<!ELEMENT a (b)> <!ELEMENT b (a)>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		trees, err := ParseString(src)
		if err != nil {
			return
		}
		for _, tr := range trees {
			if err := tr.Validate(); err != nil {
				t.Fatalf("Parse accepted an invalid tree: %v", err)
			}
		}
	})
}
