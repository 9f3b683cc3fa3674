package matcher

import (
	"slices"

	"bellflower/internal/schema"
	"bellflower/internal/strsim"
)

// Structure matchers (the paper's second matcher group, Sec. 2.2) compute
// similarity from the structural context of elements rather than their
// local properties: ancestor paths, child sets and leaf sets, in the
// spirit of Cupid's TreeMatch. In the paper's alternative clustered
// technique (Sec. 2.3), localized matchers run before clustering and
// structure matchers run after it, per cluster — implemented by
// pipeline.Options.StructureMatcher.

// PathContextMatcher compares the root-to-node name paths of the two
// elements: each ancestor name of the shorter path is greedily matched to
// its most similar counterpart. Elements living under similar containers
// score high even when their own names differ.
type PathContextMatcher struct{}

// Name implements Matcher.
func (PathContextMatcher) Name() string { return "path-context" }

// Similarity implements Matcher.
func (PathContextMatcher) Similarity(p, r *schema.Node) float64 {
	return nameListSimilarity(p.Path(), r.Path())
}

// ChildContextMatcher compares the immediate child name sets of the two
// elements. Leaves score by both being leaves (1) or not (0.5 — no
// structural evidence either way against an inner node).
type ChildContextMatcher struct{}

// Name implements Matcher.
func (ChildContextMatcher) Name() string { return "child-context" }

// Similarity implements Matcher.
func (ChildContextMatcher) Similarity(p, r *schema.Node) float64 {
	pc, rc := childNames(p), childNames(r)
	switch {
	case len(pc) == 0 && len(rc) == 0:
		return 1
	case len(pc) == 0 || len(rc) == 0:
		return 0.5
	}
	return nameListSimilarity(pc, rc)
}

// LeafContextMatcher compares the leaf name sets of the subtrees rooted at
// the two elements — the leaf-oriented core of Cupid's TreeMatch: two
// containers are similar when the data they ultimately hold is similar.
type LeafContextMatcher struct{}

// Name implements Matcher.
func (LeafContextMatcher) Name() string { return "leaf-context" }

// Similarity implements Matcher.
func (LeafContextMatcher) Similarity(p, r *schema.Node) float64 {
	return nameListSimilarity(leafNames(p), leafNames(r))
}

func childNames(n *schema.Node) []string {
	kids := n.Children()
	out := make([]string, len(kids))
	for i, c := range kids {
		out[i] = c.Name
	}
	return out
}

func leafNames(n *schema.Node) []string {
	var out []string
	var rec func(m *schema.Node)
	rec = func(m *schema.Node) {
		if m.IsLeaf() {
			out = append(out, m.Name)
			return
		}
		for _, c := range m.Children() {
			rec(c)
		}
	}
	rec(n)
	return out
}

// nameListSimilarity greedily pairs each name of the shorter list with its
// most similar unused counterpart in the longer one and averages the pair
// scores over the longer list, so unmatched names dilute the score.
func nameListSimilarity(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	used := make([]bool, len(b))
	total := 0.0
	for _, x := range a {
		best, bestJ := 0.0, -1
		for j, y := range b {
			if used[j] {
				continue
			}
			if s := strsim.CompareStringFuzzy(x, y); s > best {
				best, bestJ = s, j
			}
		}
		if bestJ >= 0 {
			used[bestJ] = true
		}
		total += best
	}
	return total / float64(len(b))
}

// Rescore returns a copy of the candidates where each pair's similarity is
// blended with a structure matcher's score:
//
//	sim' = (1−w)·sim + w·structure(p, r)
//
// Used by the two-phase clustered matching technique: cheap localized
// matchers produce the preliminary candidates, clustering partitions them,
// and the expensive structure matcher refines only the candidates inside
// each cluster. keep drops rescored pairs whose node is not accepted
// (pass nil to keep all).
func Rescore(c *Candidates, structure Matcher, weight float64, keep func(*schema.Node) bool) *Candidates {
	if weight < 0 || weight > 1 {
		panic("matcher: Rescore weight outside [0,1]")
	}
	out := &Candidates{Personal: c.Personal, Sets: make([]CandidateSet, len(c.Sets))}
	for i := range c.Sets {
		src := &c.Sets[i]
		dst := &out.Sets[i]
		dst.Personal = src.Personal
		for _, cand := range src.Elems {
			if keep != nil && !keep(cand.Node) {
				continue
			}
			s := (1-weight)*cand.Sim + weight*structure.Similarity(src.Personal, cand.Node)
			dst.Elems = append(dst.Elems, Candidate{Node: cand.Node, Sim: s})
		}
		slices.SortFunc(dst.Elems, candidateCompare)
	}
	return out
}
