// Package repogen generates synthetic XML schema repositories.
//
// The paper's repository was harvested from the Internet: 1700 non-recursive
// DTDs and XML schemas with 178 252 element/attribute nodes over 3889 trees,
// from which experiment repositories of 2500–10 200 elements were sampled.
// That collection is not available, so this package is the documented
// substitution: a seeded generator that produces forests with
// the properties the experiments depend on — realistic element vocabularies
// with heavy name reuse across trees (so the element matcher yields dense
// mapping-element sets), misspellings and naming-convention noise (so fuzzy
// matching matters), and tree shapes comparable to real-world schemas.
//
// Trees are grown from domain production rules (library, commerce, contacts,
// education, publishing, ...) whose concepts intentionally share vocabulary
// (name, address, email, title appear in many domains), mirroring how
// harvested web schemas overlap.
package repogen

import (
	"fmt"
	"math/rand"

	"bellflower/internal/schema"
)

// Config controls repository generation. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Seed makes generation reproducible.
	Seed int64

	// TargetNodes is the approximate total node count of the forest; the
	// paper's reference experiment uses 9759.
	TargetNodes int

	// MeanTreeSize is the average tree size; the reference experiment has
	// 9759/262 ≈ 37 nodes per tree.
	MeanTreeSize int

	// MaxDepth bounds tree depth (root = depth 0).
	MaxDepth int

	// NoiseRate is the probability that a generated name is perturbed
	// (typo, naming-convention change, abbreviation, pluralization).
	NoiseRate float64

	// AttributeRate is the probability that a generated leaf becomes an
	// attribute instead of an element.
	AttributeRate float64
}

// DefaultConfig mirrors the paper's reference repository scale.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		TargetNodes:   9759,
		MeanTreeSize:  37,
		MaxDepth:      14,
		NoiseRate:     0.25,
		AttributeRate: 0.12,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TargetNodes < 1 {
		return fmt.Errorf("repogen: TargetNodes %d < 1", c.TargetNodes)
	}
	if c.MeanTreeSize < 2 {
		return fmt.Errorf("repogen: MeanTreeSize %d < 2", c.MeanTreeSize)
	}
	if c.MaxDepth < 1 {
		return fmt.Errorf("repogen: MaxDepth %d < 1", c.MaxDepth)
	}
	if c.NoiseRate < 0 || c.NoiseRate > 1 {
		return fmt.Errorf("repogen: NoiseRate %v outside [0,1]", c.NoiseRate)
	}
	if c.AttributeRate < 0 || c.AttributeRate > 1 {
		return fmt.Errorf("repogen: AttributeRate %v outside [0,1]", c.AttributeRate)
	}
	return nil
}

// productions maps a concept to the child concepts it may expand into.
// Concepts without productions are leaves. The vocabulary deliberately
// reuses generic concepts (name, address, email, title, price) across
// domains, as harvested web schemas do.
var productions = map[string][]string{
	// library domain
	"library":    {"address", "book", "member", "shelf", "catalog", "branch", "name"},
	"branch":     {"name", "address", "section", "member"},
	"section":    {"name", "book", "subsection", "shelf"},
	"subsection": {"name", "book"},
	"book":       {"title", "author", "isbn", "publisher", "year", "price", "data", "chapter"},
	"author":     {"name", "firstName", "lastName", "email", "bio"},
	"member":     {"name", "address", "email", "phone", "memberId"},
	"shelf":      {"code", "book"},
	"catalog":    {"book", "cd", "product", "section", "name"},
	"chapter":    {"title", "page"},
	"data":       {"title", "value", "date"},

	// commerce domain
	"store":    {"name", "address", "catalog", "order", "branch", "phone"},
	"order":    {"orderId", "customer", "item", "total", "date", "shipTo"},
	"customer": {"name", "email", "phone", "address", "company"},
	"item":     {"product", "quantity", "price", "sku"},
	"product":  {"name", "description", "price", "category", "manufacturer"},
	"shipTo":   {"name", "street", "city", "zip", "country"},
	"invoice":  {"orderId", "customer", "total", "date", "item"},

	// organizations & contacts domain
	"contacts":     {"person", "company", "group"},
	"person":       {"name", "address", "email", "phone", "birthDate"},
	"company":      {"name", "address", "phone", "website", "division"},
	"division":     {"name", "department", "address"},
	"employee":     {"name", "email", "title", "address"},
	"group":        {"name", "person", "group2"},
	"group2":       {"name", "person"},
	"address":      {"street", "city", "zip", "country", "state"},
	"manufacturer": {"name", "address", "website"},

	// education domain
	"university": {"name", "department", "student", "course", "address"},
	"student":    {"name", "email", "studentId", "address"},
	"course":     {"title", "credits", "instructor"},
	"instructor": {"name", "email", "office"},
	"department": {"name", "course", "instructor", "team", "address"},
	"team":       {"name", "employee"},

	// publishing domain
	"publication": {"title", "author", "journal", "year", "abstract"},
	"journal":     {"name", "issn", "publisher"},
	"publisher":   {"name", "address", "website"},
	"proceedings": {"title", "publication", "year", "publisher"},

	// media domain
	"cd":     {"title", "artist", "tracks", "price"},
	"artist": {"name", "country"},
	"tracks": {"track"},
	"track":  {"title", "duration"},
}

// roots are concepts a tree may start from.
var roots = []string{
	"library", "store", "contacts", "university", "order", "catalog",
	"publication", "person", "company", "invoice", "proceedings", "cd",
}

// leafType assigns datatypes to leaf concepts.
var leafType = map[string]string{
	"title": "string", "name": "string", "firstName": "string",
	"lastName": "string", "email": "string", "phone": "string",
	"street": "string", "city": "string", "zip": "token",
	"country": "string", "state": "string", "isbn": "token",
	"issn": "token", "sku": "token", "code": "token",
	"orderId": "token", "memberId": "token", "studentId": "token",
	"price": "decimal", "total": "decimal", "quantity": "integer",
	"credits": "integer", "page": "integer", "year": "gYear",
	"date": "date", "birthDate": "date", "duration": "integer",
	"value": "string", "description": "string", "bio": "string",
	"abstract": "string", "website": "anyURI", "office": "string",
	"category": "string",
}

// abbreviations for naming-convention noise.
var abbreviations = map[string]string{
	"address": "addr", "telephone": "tel", "phone": "tel",
	"quantity": "qty", "number": "num", "description": "desc",
	"organization": "org", "department": "dept", "manufacturer": "mfr",
}

// Generate builds a repository per the configuration. Generation is
// deterministic in the seed.
func Generate(cfg Config) (*schema.Repository, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{cfg: cfg, rng: rng}
	repo := schema.NewRepository()
	for repo.Len() < cfg.TargetNodes {
		size := g.treeSize()
		if rem := cfg.TargetNodes - repo.Len(); size > rem {
			size = rem
		}
		if size < 2 {
			size = 2
		}
		repo.MustAdd(g.tree(size))
	}
	return repo, nil
}

// MustGenerate is Generate but panics on error; for tests and examples.
func MustGenerate(cfg Config) *schema.Repository {
	r, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

type generator struct {
	cfg   Config
	rng   *rand.Rand
	ntree int
}

// treeSize samples a heavy-tailed size with mean ≈ MeanTreeSize. Harvested
// web-schema collections are dominated by small schemas with a long tail of
// very large ones; the tail is what makes the non-clustered search space
// explode (and what clustering then cuts into regions). Buckets (for the
// default mean 37): 80% small [5,30], 15% medium [30,100], 5% large
// [100,600]; expected value ≈ 41.
func (g *generator) treeSize() int {
	m := g.cfg.MeanTreeSize
	lo := m / 7
	if lo < 3 {
		lo = 3
	}
	var s int
	switch r := g.rng.Float64(); {
	case r < 0.80:
		s = lo + g.rng.Intn(maxInt(1, m*4/5-lo))
	case r < 0.95:
		s = m * 4 / 5
		s += g.rng.Intn(maxInt(1, m*27/10-s))
	default:
		s = m * 27 / 10
		s += g.rng.Intn(maxInt(1, m*16-s))
	}
	if s < 3 {
		s = 3
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// tree grows one schema tree of approximately the given size.
func (g *generator) tree(size int) *schema.Tree {
	g.ntree++
	rootConcept := roots[g.rng.Intn(len(roots))]
	b := schema.NewBuilder(fmt.Sprintf("synthetic-%04d-%s", g.ntree, rootConcept))
	root := b.Root(g.name(rootConcept))
	budget := size - 1

	// frontier of expandable (node, concept, depth) entries
	type entry struct {
		node    *schema.Node
		concept string
		depth   int
	}
	frontier := []entry{{root, rootConcept, 0}}
	for budget > 0 && len(frontier) > 0 {
		// Pop depth-first with high probability: real large schemas are
		// deep (nested type hierarchies), and depth is what separates
		// repository regions so that clustering has something to cut.
		// The occasional random pop keeps shapes varied.
		i := len(frontier) - 1
		if g.rng.Float64() < 0.3 {
			i = g.rng.Intn(len(frontier))
		}
		e := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		prods := productions[e.concept]
		if len(prods) == 0 || e.depth >= g.cfg.MaxDepth {
			continue
		}
		// Sample children with replacement: container concepts repeat
		// (a library holds several book subtrees, an order several items),
		// which is what lets trees reach realistic sizes. Leaf concepts
		// are deduplicated per parent (one title per book). Containers are
		// returned to the frontier so they can keep growing while budget
		// remains — otherwise trees starve far below the target size.
		k := 2 + g.rng.Intn(len(prods)+2)
		if k > budget {
			k = budget
		}
		if g.rng.Float64() < 0.5 {
			frontier = append(frontier, e)
		}
		seenLeaf := map[string]bool{}
		for c := 0; c < k; c++ {
			child := prods[g.rng.Intn(len(prods))]
			isLeaf := len(productions[child]) == 0
			if isLeaf && seenLeaf[child] {
				continue
			}
			if isLeaf {
				seenLeaf[child] = true
			}
			name := g.name(child)
			var n *schema.Node
			if isLeaf && g.rng.Float64() < g.cfg.AttributeRate {
				n = b.TypedAttribute(e.node, name, leafType[child])
			} else if isLeaf {
				n = b.TypedElement(e.node, name, leafType[child])
			} else {
				n = b.Element(e.node, name)
			}
			budget--
			if !isLeaf {
				frontier = append(frontier, entry{n, child, e.depth + 1})
			}
			if budget == 0 {
				break
			}
		}
	}
	return b.MustTree()
}

// name renders a concept as an element name, optionally perturbed.
func (g *generator) name(concept string) string {
	name := concept
	if g.rng.Float64() >= g.cfg.NoiseRate {
		return name
	}
	switch g.rng.Intn(6) {
	case 0: // typo: swap two adjacent letters
		if len(name) >= 3 {
			i := g.rng.Intn(len(name) - 1)
			bs := []byte(name)
			bs[i], bs[i+1] = bs[i+1], bs[i]
			name = string(bs)
		}
	case 1: // typo: drop a letter
		if len(name) >= 4 {
			i := g.rng.Intn(len(name))
			name = name[:i] + name[i+1:]
		}
	case 2: // snake_case suffix convention: fooInfo -> foo_info
		suffixes := []string{"Info", "Data", "Element", "Type"}
		name = name + suffixes[g.rng.Intn(len(suffixes))]
	case 3: // abbreviation
		if abbr, ok := abbreviations[name]; ok {
			name = abbr
		}
	case 4: // pluralization
		name = name + "s"
	case 5: // uppercase first letter (different casing convention)
		if len(name) > 0 {
			name = string(name[0]-'a'+'A') + name[1:]
		}
	}
	return name
}
