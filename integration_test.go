package bellflower

// Integration tests exercising full cross-module workflows through the
// public API: ingest (XSD/DTD/instance) → persist → load → match →
// rewrite, plus consistency checks between the clustering variants at a
// realistic scale.

import (
	"bytes"
	"strings"
	"testing"
)

// TestFullWorkflow walks the complete personal-schema-querying pipeline:
// a repository assembled from all three ingestion paths is saved, loaded
// back, matched, and the user query is rewritten over the best mapping.
func TestFullWorkflow(t *testing.T) {
	repo := NewRepository()

	xsdTrees, err := ParseXSD(strings.NewReader(`
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library">
    <xs:complexType><xs:sequence>
      <xs:element name="book">
        <xs:complexType><xs:sequence>
          <xs:element name="authorName" type="xs:string"/>
          <xs:element name="data">
            <xs:complexType><xs:sequence>
              <xs:element name="title" type="xs:string"/>
            </xs:sequence></xs:complexType>
          </xs:element>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>`))
	if err != nil {
		t.Fatalf("ParseXSD: %v", err)
	}
	dtdTrees, err := ParseDTD(strings.NewReader(`
<!ELEMENT bookstore (book*)>
<!ELEMENT book (titel, autor)>
<!ELEMENT titel (#PCDATA)>
<!ELEMENT autor (#PCDATA)>`))
	if err != nil {
		t.Fatalf("ParseDTD: %v", err)
	}
	inferred, err := InferSchema(strings.NewReader(
		`<shop><item><name>Iliad</name><writer>Homer</writer></item></shop>`))
	if err != nil {
		t.Fatalf("InferSchema: %v", err)
	}
	for _, tr := range xsdTrees {
		repo.MustAdd(tr)
	}
	for _, tr := range dtdTrees {
		repo.MustAdd(tr)
	}
	repo.MustAdd(inferred)

	// Persist and reload.
	var buf bytes.Buffer
	if err := SaveRepository(&buf, repo); err != nil {
		t.Fatalf("SaveRepository: %v", err)
	}
	loaded, err := LoadRepository(&buf)
	if err != nil {
		t.Fatalf("LoadRepository: %v", err)
	}
	if loaded.Len() != repo.Len() {
		t.Fatalf("reload lost nodes: %d vs %d", loaded.Len(), repo.Len())
	}

	// Match and rewrite.
	personal := MustParseSchema("book(title,author)")
	opts := DefaultOptions()
	opts.Variant = VariantTree
	opts.Threshold = 0.55
	opts.MinSim = 0.4
	m := NewMatcher(loaded)
	rep, err := m.Match(personal, opts)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if len(rep.Mappings) < 2 {
		t.Fatalf("want mappings from several trees, got %d", len(rep.Mappings))
	}
	sources := map[int]bool{}
	for _, mp := range rep.Mappings {
		sources[mp.Images[0].Tree().ID] = true
	}
	if len(sources) < 2 {
		t.Errorf("mappings all come from one tree: %v", sources)
	}
	q, err := m.RewriteQuery(`/book[title="Iliad"]/author`, personal, rep.Mappings[0])
	if err != nil {
		t.Fatalf("RewriteQuery: %v", err)
	}
	if !strings.HasPrefix(q, "/") || !strings.Contains(q, "Iliad") {
		t.Errorf("rewritten query = %q", q)
	}
}

// TestVariantConsistencyAtScale cross-checks, at a realistic repository
// size, that every clustering variant returns a subset of the baseline's
// mappings with identical scores.
func TestVariantConsistencyAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	cfg := DefaultSyntheticConfig()
	cfg.TargetNodes = 4000
	cfg.Seed = 11
	repo, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(repo)
	personal := MustParseSchema("address(name,email)")

	key := func(mp Mapping) string {
		var b strings.Builder
		for _, img := range mp.Images {
			b.WriteString(img.String())
			b.WriteString("|")
		}
		return b.String()
	}
	base := DefaultOptions()
	base.MinSim = 0.3
	base.Variant = VariantTree
	baseRep, err := m.Match(personal, base)
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]float64{}
	for _, mp := range baseRep.Mappings {
		baseline[key(mp)] = mp.Score.Delta
	}

	for _, v := range []Variant{VariantSmall, VariantMedium, VariantLarge} {
		opts := base
		opts.Variant = v
		rep, err := m.Match(personal, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, mp := range rep.Mappings {
			d, ok := baseline[key(mp)]
			if !ok {
				t.Fatalf("%v: mapping not in baseline: %s", v, key(mp))
			}
			if d != mp.Score.Delta {
				t.Fatalf("%v: score drift: %v vs %v", v, mp.Score.Delta, d)
			}
		}
	}
}

// TestXSDCorpusRoundTrip exports a synthetic repository as one XSD corpus,
// re-ingests it, and verifies matching is preserved — the full
// export/import cycle a user migrating repositories would run.
func TestXSDCorpusRoundTrip(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.TargetNodes = 800
	cfg.AttributeRate = 0 // XSD reorders attributes before elements; keep structural identity exact
	repo, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One XSD document per schema, as in a harvested corpus of files
	// (several synthetic trees share root names, and XML Schema forbids
	// duplicate top-level elements within one document).
	back := NewRepository()
	for _, src := range repo.Trees() {
		var buf bytes.Buffer
		if err := WriteXSD(&buf, src); err != nil {
			t.Fatalf("WriteXSD: %v", err)
		}
		trees, err := ParseXSD(&buf)
		if err != nil {
			t.Fatalf("ParseXSD(%s): %v", src.Name, err)
		}
		for _, tr := range trees {
			back.MustAdd(tr)
		}
	}
	if back.Len() != repo.Len() {
		t.Fatalf("corpus round trip lost nodes: %d vs %d", back.Len(), repo.Len())
	}
	personal := MustParseSchema("address(name,email)")
	opts := DefaultOptions()
	opts.MinSim = 0.3
	a, err := NewMatcher(repo).Match(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMatcher(back).Match(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Mappings) != len(b.Mappings) {
		t.Fatalf("mappings differ after XSD round trip: %d vs %d",
			len(a.Mappings), len(b.Mappings))
	}
}

// TestRepositoryPersistenceAtScale round-trips a paper-scale synthetic
// repository through the text format and verifies matching equivalence.
func TestRepositoryPersistenceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	cfg := DefaultSyntheticConfig()
	cfg.TargetNodes = 3000
	repo, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveRepository(&buf, repo); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	personal := MustParseSchema("address(name,email)")
	opts := DefaultOptions()
	opts.MinSim = 0.3
	a, err := NewMatcher(repo).Match(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMatcher(loaded).Match(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Mappings) != len(b.Mappings) {
		t.Fatalf("mapping count differs after persistence: %d vs %d",
			len(a.Mappings), len(b.Mappings))
	}
	for i := range a.Mappings {
		if a.Mappings[i].Score.Delta != b.Mappings[i].Score.Delta {
			t.Fatalf("rank %d score differs", i)
		}
	}
}
