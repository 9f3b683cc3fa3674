package xsd

import (
	"bytes"
	"testing"

	"bellflower/internal/schema"
)

// FuzzParseXSD: Parse never panics, every tree it accepts is well formed,
// and Write → Parse is exact after one normalising pass (Write puts
// attributes before element children and drops inner nodes' datatypes):
// writing the parsed-back trees again gives the same document.
func FuzzParseXSD(f *testing.F) {
	for _, s := range []string{
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="book">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="title" type="xs:string"/>
        <xs:element name="author">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="first" type="xs:string"/>
              <xs:element name="last" type="xs:string"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
      <xs:attribute name="isbn" type="xs:token"/>
    </xs:complexType>
  </xs:element>
</xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="AddressType">
    <xs:sequence>
      <xs:element name="street" type="xs:string"/>
      <xs:element name="city" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="person">
    <xs:complexType>
      <xs:choice>
        <xs:element name="home" type="AddressType"/>
        <xs:element ref="note"/>
      </xs:choice>
    </xs:complexType>
  </xs:element>
  <xs:element name="note" type="xs:string"/>
</xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:complexType name="T"><xs:sequence><xs:element name="x" type="T"/></xs:sequence></xs:complexType><xs:element name="r" type="T"/></xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"></xs:schema>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		trees, err := ParseString(doc)
		if err != nil {
			return
		}
		for _, tr := range trees {
			if err := tr.Validate(); err != nil {
				t.Fatalf("Parse accepted an invalid tree: %v", err)
			}
		}
		once := writeParse(t, trees)
		twice := writeParse(t, once)
		if a, b := write(t, once), write(t, twice); !bytes.Equal(a, b) {
			t.Fatalf("Write → Parse is not stable after one pass:\n%s\nbecame\n%s", a, b)
		}
	})
}

func write(t *testing.T, trees []*schema.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, trees...); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func writeParse(t *testing.T, trees []*schema.Tree) []*schema.Tree {
	t.Helper()
	doc := write(t, trees)
	back, err := Parse(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse rejects Write's output: %v\n%s", err, doc)
	}
	return back
}
