package xsd

import (
	"strings"
	"testing"

	"bellflower/internal/schema"
)

// parseString is Parse over a string.
func parseString(s string) ([]*schema.Tree, error) { return Parse(strings.NewReader(s)) }

func TestParseInlineComplexType(t *testing.T) {
	trees, err := parseString(`
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
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
</xs:schema>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(trees) != 1 {
		t.Fatalf("trees = %d", len(trees))
	}
	tr := trees[0]
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tr.String(); got != "book(isbn@,title,author(first,last))" {
		t.Errorf("tree = %q", got)
	}
	if got := tr.Find("title").Type; got != "string" {
		t.Errorf("title type = %q", got)
	}
	if got := tr.Find("isbn").Type; got != "token" {
		t.Errorf("isbn type = %q", got)
	}
}

func TestParseNamedTypeAndRef(t *testing.T) {
	trees, err := parseString(`
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="AddressType">
    <xs:sequence>
      <xs:element name="street" type="xs:string"/>
      <xs:element name="city" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="person">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="name" type="xs:string"/>
        <xs:element name="address" type="AddressType"/>
        <xs:element ref="company"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="company">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="name" type="xs:string"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(trees) != 2 {
		t.Fatalf("trees = %d (one per top-level element)", len(trees))
	}
	person := trees[0]
	if got := person.String(); got != "person(name,address(street,city),company(name))" {
		t.Errorf("person = %q", got)
	}
	if got := trees[1].String(); got != "company(name)" {
		t.Errorf("company = %q", got)
	}
}

func TestParseChoiceAndAll(t *testing.T) {
	trees, err := parseString(`
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="payment">
    <xsd:complexType>
      <xsd:choice>
        <xsd:element name="card" type="xsd:string"/>
        <xsd:element name="cash" type="xsd:string"/>
      </xsd:choice>
    </xsd:complexType>
  </xsd:element>
  <xsd:element name="meta">
    <xsd:complexType>
      <xsd:all>
        <xsd:element name="created" type="xsd:date"/>
      </xsd:all>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := trees[0].String(); got != "payment(card,cash)" {
		t.Errorf("choice tree = %q", got)
	}
	if got := trees[1].String(); got != "meta(created)" {
		t.Errorf("all tree = %q", got)
	}
}

func TestParseNestedGroups(t *testing.T) {
	trees, err := parseString(`
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="order">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="id" type="xs:token"/>
        <xs:choice>
          <xs:element name="pickup" type="xs:string"/>
          <xs:sequence>
            <xs:element name="street" type="xs:string"/>
            <xs:element name="zip" type="xs:token"/>
          </xs:sequence>
        </xs:choice>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := trees[0].String()
	// group nesting flattens into child structure
	for _, name := range []string{"id", "pickup", "street", "zip"} {
		if !strings.Contains(got, name) {
			t.Errorf("tree %q missing %s", got, name)
		}
	}
}

func TestParseRecursiveTypeRejected(t *testing.T) {
	_, err := parseString(`
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Node">
    <xs:sequence>
      <xs:element name="child" type="Node"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="root" type="Node"/>
</xs:schema>`)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursive type accepted: %v", err)
	}
}

func TestParseRecursiveRefRejected(t *testing.T) {
	_, err := parseString(`
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a">
    <xs:complexType><xs:sequence><xs:element ref="b"/></xs:sequence></xs:complexType>
  </xs:element>
  <xs:element name="b">
    <xs:complexType><xs:sequence><xs:element ref="a"/></xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>`)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursive ref accepted: %v", err)
	}
}

func TestParseSiblingRefsAllowed(t *testing.T) {
	// The same ref used twice as siblings is NOT recursion.
	trees, err := parseString(`
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="pair">
    <xs:complexType>
      <xs:sequence>
        <xs:element ref="point"/>
        <xs:element ref="point"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="point">
    <xs:complexType>
      <xs:sequence><xs:element name="x" type="xs:int"/></xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`)
	if err != nil {
		t.Fatalf("sibling refs rejected: %v", err)
	}
	if got := trees[0].String(); got != "pair(point(x),point(x))" {
		t.Errorf("tree = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":        `garbage`,
		"wrong root":     `<foo/>`,
		"no elements":    `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:complexType name="T"/></xs:schema>`,
		"dangling ref":   `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="a"><xs:complexType><xs:sequence><xs:element ref="missing"/></xs:sequence></xs:complexType></xs:element></xs:schema>`,
		"dup type":       `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:complexType name="T"/><xs:complexType name="T"/><xs:element name="a" type="T"/></xs:schema>`,
		"dup element":    `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="a"/><xs:element name="a"/></xs:schema>`,
		"anonymous type": `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:complexType/><xs:element name="a"/></xs:schema>`,
	}
	for name, src := range cases {
		if _, err := parseString(src); err == nil {
			t.Errorf("%s: error expected", name)
		}
	}
}

func TestParseUnknownTypeBecomesLeaf(t *testing.T) {
	trees, err := parseString(`
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="ext:SomeForeignType"/>
</xs:schema>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := trees[0].Root().Type; got != "SomeForeignType" {
		t.Errorf("leaf type = %q", got)
	}
	if trees[0].Len() != 1 {
		t.Errorf("tree size = %d", trees[0].Len())
	}
}
