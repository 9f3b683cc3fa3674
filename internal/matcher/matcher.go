package matcher

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"bellflower/internal/schema"
	"bellflower/internal/strsim"
)

// Matcher computes a similarity index in [0, 1] for a pair of elements from
// local properties.
type Matcher interface {
	// Name identifies the matcher in reports.
	Name() string
	// Similarity compares a personal-schema node with a repository node.
	Similarity(p, r *schema.Node) float64
}

// NameMatcher compares element names with a string similarity metric — the
// single matcher the paper's Bellflower system uses. The zero value is the
// paper-faithful configuration (CompareStringFuzzy).
type NameMatcher struct {
	// TokenAware additionally credits reordered compound names
	// ("authorName" vs "name_of_author"). The paper's matcher is pure
	// CompareStringFuzzy; token awareness is an extension, off by default.
	TokenAware bool

	// Metric selects the underlying string similarity; the zero value is
	// the paper's fuzzy edit-distance measure. See strsim.Metric for the
	// alternatives (Jaro–Winkler, trigram Jaccard, bigram cosine).
	Metric strsim.Metric
}

// Name implements Matcher.
func (m NameMatcher) Name() string { return "name(" + m.Metric.String() + ")" }

// Similarity implements Matcher.
func (m NameMatcher) Similarity(p, r *schema.Node) float64 {
	s := m.Metric.Similarity(p.Name, r.Name)
	if m.TokenAware {
		if t := strsim.TokenSimilarity(p.Name, r.Name); t > s {
			s = t
		}
	}
	return s
}

// SynonymMatcher scores 1.0 for names listed as synonyms in a dictionary
// (COMA-style), otherwise 0. Combine it with a NameMatcher.
type SynonymMatcher struct {
	dict map[string]map[string]bool
}

// NewSynonymMatcher builds a matcher from synonym groups; each group is a
// set of mutually synonymous (case-insensitive) names.
func NewSynonymMatcher(groups ...[]string) *SynonymMatcher {
	m := &SynonymMatcher{dict: make(map[string]map[string]bool)}
	for _, g := range groups {
		m.AddGroup(g...)
	}
	return m
}

// AddGroup records that all the given names are synonyms of each other.
func (m *SynonymMatcher) AddGroup(names ...string) {
	folded := make([]string, len(names))
	for i, n := range names {
		folded[i] = fold(n)
	}
	for _, a := range folded {
		set := m.dict[a]
		if set == nil {
			set = make(map[string]bool)
			m.dict[a] = set
		}
		for _, b := range folded {
			if a != b {
				set[b] = true
			}
		}
	}
}

func fold(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}

// Name implements Matcher.
func (*SynonymMatcher) Name() string { return "synonym" }

// Similarity implements Matcher.
func (m *SynonymMatcher) Similarity(p, r *schema.Node) float64 {
	a, b := fold(p.Name), fold(r.Name)
	if a == b {
		return 1
	}
	if m.dict[a][b] {
		return 1
	}
	return 0
}

// DefaultSynonyms returns a small built-in synonym dictionary covering the
// vocabularies used by the experiments and examples.
func DefaultSynonyms() *SynonymMatcher {
	return NewSynonymMatcher(
		[]string{"author", "writer", "creator"},
		[]string{"name", "title", "label"},
		[]string{"email", "e-mail", "mail"},
		[]string{"phone", "telephone", "tel"},
		[]string{"address", "addr", "location"},
		[]string{"zip", "zipcode", "postcode", "postalcode"},
		[]string{"price", "cost", "amount"},
		[]string{"book", "publication", "volume"},
		[]string{"person", "individual", "contact"},
		[]string{"company", "organization", "organisation", "firm"},
	)
}

// TypeMatcher scores datatype compatibility: 1 for identical declared types,
// a configurable partial credit for compatible families (all numerics, all
// string-likes), 0.5 when either type is unknown (no evidence either way).
type TypeMatcher struct{}

// Name implements Matcher.
func (TypeMatcher) Name() string { return "datatype" }

var typeFamily = map[string]string{
	"string": "text", "token": "text", "normalizedstring": "text", "id": "text",
	"anyuri": "text", "ncname": "text", "text": "text",
	"integer": "number", "int": "number", "long": "number", "short": "number",
	"decimal": "number", "float": "number", "double": "number",
	"nonnegativeinteger": "number", "positiveinteger": "number",
	"date": "time", "datetime": "time", "time": "time", "gyear": "time",
	"boolean": "bool",
}

// Similarity implements Matcher.
func (TypeMatcher) Similarity(p, r *schema.Node) float64 {
	a, b := fold(p.Type), fold(r.Type)
	if a == "" || b == "" {
		return 0.5
	}
	if a == b {
		return 1
	}
	fa, fb := typeFamily[a], typeFamily[b]
	if fa != "" && fa == fb {
		return 0.75
	}
	return 0
}

// Weighted is a (matcher, weight) pair for Combined.
type Weighted struct {
	Matcher Matcher
	Weight  float64
}

// Combined merges several matchers with a weighted average, the combining
// technique the paper attributes to COMA/LSD.
type Combined struct {
	parts []Weighted
	total float64
}

// NewCombined returns a combined matcher. It panics if no matcher has a
// positive weight.
func NewCombined(parts ...Weighted) *Combined {
	c := &Combined{parts: parts}
	for _, p := range parts {
		if p.Weight < 0 {
			panic(fmt.Sprintf("matcher: negative weight %v for %s", p.Weight, p.Matcher.Name()))
		}
		c.total += p.Weight
	}
	if c.total == 0 {
		panic("matcher: combined matcher has zero total weight")
	}
	return c
}

// Describe returns a canonical, address-free description of a matcher's
// configuration, suitable for request cache keys: equal descriptions imply
// identical scoring behaviour. Known matcher types render their full
// configuration (recursing into Combined, whose parts hold interface
// values that fmt would otherwise print as pointer addresses); unknown
// implementations fall back to %T%+v, which is canonical for plain value
// types.
func Describe(m Matcher) string {
	switch mm := m.(type) {
	case nil:
		return ""
	case *Combined:
		var b strings.Builder
		b.WriteString("combined(")
		for i, p := range mm.parts {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g*%s", p.Weight, Describe(p.Matcher))
		}
		b.WriteByte(')')
		return b.String()
	case *SynonymMatcher:
		// fmt sorts map keys, so the dictionary renders deterministically.
		return fmt.Sprintf("synonym%+v", mm.dict)
	default:
		return fmt.Sprintf("%T%+v", m, m)
	}
}

// Name implements Matcher.
func (c *Combined) Name() string {
	out := "combined("
	for i, p := range c.parts {
		if i > 0 {
			out += "+"
		}
		out += p.Matcher.Name()
	}
	return out + ")"
}

// Similarity implements Matcher.
func (c *Combined) Similarity(p, r *schema.Node) float64 {
	sum := 0.0
	for _, part := range c.parts {
		sum += part.Weight * part.Matcher.Similarity(p, r)
	}
	return sum / c.total
}

// Candidate is one mapping element: a repository node paired with its
// similarity to a specific personal-schema node.
type Candidate struct {
	Node *schema.Node
	Sim  float64
}

// CandidateSet is MEn — all mapping elements for one personal-schema node,
// sorted by descending similarity (ties broken by node ID for determinism).
type CandidateSet struct {
	Personal *schema.Node
	Elems    []Candidate
}

// Candidates holds the element-matching result for a whole personal schema:
// one CandidateSet per personal node, indexed by the node's preorder rank.
type Candidates struct {
	Personal *schema.Tree
	Sets     []CandidateSet
}

// TotalMappingElements returns the number of (personal node, repository
// node) candidate pairs — the paper's "mapping elements" count (4520 in the
// reference experiment).
func (c *Candidates) TotalMappingElements() int {
	n := 0
	for i := range c.Sets {
		n += len(c.Sets[i].Elems)
	}
	return n
}

// MinSet returns the index of the smallest non-empty candidate set (MEmin in
// the paper), used to seed the k-means centroids. Returns -1 if every set is
// empty.
func (c *Candidates) MinSet() int {
	best := -1
	for i := range c.Sets {
		n := len(c.Sets[i].Elems)
		if n == 0 {
			continue
		}
		if best == -1 || n < len(c.Sets[best].Elems) {
			best = i
		}
	}
	return best
}

// Config controls candidate generation.
type Config struct {
	// MinSim is the similarity threshold below which a pair is not recorded
	// as a mapping element. The paper keeps all non-zero pairs; a small
	// positive threshold bounds noise on large repositories.
	MinSim float64
}

// FindCandidates cross-compares every personal node with every repository
// node using m — the quadratic element-matching step ② — and returns the
// per-node candidate sets.
func FindCandidates(personal *schema.Tree, repo *schema.Repository, m Matcher, cfg Config) *Candidates {
	return FindCandidatesAmong(personal, repo.Nodes(), m, cfg)
}

// FindCandidatesAmong is FindCandidates over an explicit node universe —
// typically a shard view's member nodes (labeling.View.Nodes) instead of a
// whole repository. Candidate ordering is (sim desc, node ID asc)
// regardless of the order of nodes, so restricting a repository to a
// subset of its trees produces exactly the full-repository result filtered
// to those trees (see Candidates.Restrict).
//
// This is the naive reference kernel: it scores every (personal node,
// repository node) pair directly. The serving path uses the
// vocabulary-deduplicated Vocabulary.FindCandidates, which is pinned
// bit-identical to this loop by the kernel equivalence property tests and
// falls back to it for matchers that are not property-local.
func FindCandidatesAmong(personal *schema.Tree, nodes []*schema.Node, m Matcher, cfg Config) *Candidates {
	out := &Candidates{
		Personal: personal,
		Sets:     make([]CandidateSet, personal.Len()),
	}
	for i, p := range personal.Nodes() {
		out.Sets[i].Personal = p
		var elems []Candidate
		for _, r := range nodes {
			s := m.Similarity(p, r)
			if s > cfg.MinSim {
				elems = append(elems, Candidate{Node: r, Sim: s})
			}
		}
		slices.SortFunc(elems, candidateCompare)
		out.Sets[i].Elems = elems
	}
	return out
}

// candidateCompare is the kernels' total candidate order: descending
// similarity, ties broken by ascending node ID. Node IDs are unique, so the
// order is strict and any correct sorting or merging algorithm yields the
// same sequence.
func candidateCompare(a, b Candidate) int {
	if a.Sim != b.Sim {
		return cmp.Compare(b.Sim, a.Sim)
	}
	return cmp.Compare(a.Node.ID, b.Node.ID)
}

// Rebind returns the candidates with the personal schema replaced by
// another, structurally identical tree (same shape and names — e.g. two
// parses of one spec): per-set personal nodes are swapped by preorder rank
// and the candidate slices are shared, so the call is O(|personal|). The
// caller is responsible for the structural identity; the serving layer
// guarantees it by keying its pre-pass cache on the schema's canonical
// signature. Returns c itself when the tree is already the bound one.
func (c *Candidates) Rebind(personal *schema.Tree) *Candidates {
	if c.Personal == personal {
		return c
	}
	out := &Candidates{
		Personal: personal,
		Sets:     make([]CandidateSet, len(c.Sets)),
	}
	for i := range c.Sets {
		out.Sets[i] = CandidateSet{Personal: personal.NodeAt(i), Elems: c.Sets[i].Elems}
	}
	return out
}

// Restrict filters the candidates to the repository nodes for which keep
// returns true — in the shared-index shard model, membership in one
// shard's labeling.View. The surviving candidates keep their original node objects and their
// (sim desc, node ID asc) order, so the result is byte-for-byte what
// FindCandidatesAmong would have produced against the kept universe with
// the same matcher and threshold. The per-set slices are freshly
// allocated; the nodes are shared.
func (c *Candidates) Restrict(keep func(*schema.Node) bool) *Candidates {
	out := &Candidates{
		Personal: c.Personal,
		Sets:     make([]CandidateSet, len(c.Sets)),
	}
	for i := range c.Sets {
		src := &c.Sets[i]
		dst := &out.Sets[i]
		dst.Personal = src.Personal
		for _, cand := range src.Elems {
			if keep(cand.Node) {
				dst.Elems = append(dst.Elems, cand)
			}
		}
	}
	return out
}
