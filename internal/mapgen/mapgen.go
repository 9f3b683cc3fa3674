package mapgen

import (
	"fmt"
	"sort"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/schema"
)

// Mapping is one discovered schema mapping s ↦ t.
type Mapping struct {
	// Images[i] is the repository node the personal node with preorder
	// rank i maps to.
	Images []*schema.Node

	// Sims[i] is the element similarity sim(n, n′) of that pair.
	Sims []float64

	// Score is the decomposed objective value.
	Score objective.Score

	// ClusterID identifies the cluster the mapping was found in.
	ClusterID int
}

// Counters are the machine-independent performance indicators of a
// generation run.
type Counters struct {
	// SearchSpace is the total number of complete mappings the clusters
	// admit: Σ_clusters Π_n |MEn ∩ cluster| (Tab. 1a "total # of schema
	// mappings"). float64 because the non-clustered space explodes.
	SearchSpace float64

	// PartialMappings counts partial mappings generated by the search
	// (Tab. 1b); every node assignment attempted is one partial mapping.
	PartialMappings int64

	// CompleteMappings counts fully assigned mappings evaluated.
	CompleteMappings int64

	// Found counts mappings with Δ ≥ δ.
	Found int64

	// UsefulClusters counts clusters that could produce mappings.
	UsefulClusters int
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.SearchSpace += other.SearchSpace
	c.PartialMappings += other.PartialMappings
	c.CompleteMappings += other.CompleteMappings
	c.Found += other.Found
	c.UsefulClusters += other.UsefulClusters
}

// Config controls a Generator.
type Config struct {
	// Threshold is δ: only mappings with Δ(s,t) ≥ δ are returned.
	Threshold float64

	// Stats, when non-nil, accumulates engine effectiveness counters
	// (partial mappings, bound skips, floor tightenings, pool reuses)
	// across every search through this generator. Share one EngineStats
	// across the generators of a repository generation to get
	// per-generation totals.
	Stats *EngineStats
}

// Generator searches clusters for schema mappings. Create with New; a
// Generator is immutable and safe for concurrent use — search state lives
// in a pool, never on the Generator.
type Generator struct {
	cfg   Config
	ix    *labeling.Index
	ev    *objective.Evaluator
	cands *matcher.Candidates
}

// New returns a generator for the given personal schema's candidates.
func New(cfg Config, ix *labeling.Index, ev *objective.Evaluator, cands *matcher.Candidates) *Generator {
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		panic(fmt.Sprintf("mapgen: threshold %v outside [0,1]", cfg.Threshold))
	}
	return &Generator{cfg: cfg, ix: ix, ev: ev, cands: cands}
}

// rankLess is the deterministic total order of the final ranking:
// descending Δ, then ascending cluster ID, then ascending image node IDs.
// Two distinct mappings always differ somewhere along this chain (one
// cluster is searched exactly once, and two mappings from one cluster
// differ in some image), so the order is total — the property the top-N
// heap's exactness and MergeRanked's agreement with Rank rest on.
func rankLess(a, b *Mapping) bool {
	if a.Score.Delta != b.Score.Delta {
		return a.Score.Delta > b.Score.Delta
	}
	if a.ClusterID != b.ClusterID {
		return a.ClusterID < b.ClusterID
	}
	for k := range a.Images {
		x, y := a.Images[k].ID, b.Images[k].ID
		if x != y {
			return x < y
		}
	}
	return false
}

// mappingSorter sorts mappings under rankLess through a concrete
// sort.Interface: no reflection-based swapper and no by-value Mapping
// copies in the comparator — ranking is the hottest part of a threshold
// search in mapping-dense clusters.
type mappingSorter []Mapping

func (s mappingSorter) Len() int           { return len(s) }
func (s mappingSorter) Less(i, j int) bool { return rankLess(&s[i], &s[j]) }
func (s mappingSorter) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Rank sorts mappings by descending Δ, breaking ties deterministically by
// cluster ID and image node IDs.
func Rank(ms []Mapping) {
	if len(ms) < 2 {
		return
	}
	sort.Sort(mappingSorter(ms))
}

// Compact returns a copy of ms that owns exactly the memory it needs: the
// list's capacity equals its length, and the mappings' Images and Sims are
// carved from two arrays of exactly their total size. A retained result
// (a cached report) then pins neither a longer list's backing array nor
// the emission slabs the search carved the originals from.
func Compact(ms []Mapping) []Mapping {
	if len(ms) == 0 {
		return nil
	}
	n := len(ms[0].Images) // every mapping of one search spans the personal schema
	out := make([]Mapping, len(ms))
	images := make([]*schema.Node, len(ms)*n)
	sims := make([]float64, len(ms)*n)
	for i := range ms {
		lo, hi := i*n, (i+1)*n
		out[i] = ms[i]
		out[i].Images = images[lo:hi:hi]
		out[i].Sims = sims[lo:hi:hi]
		copy(out[i].Images, ms[i].Images)
		copy(out[i].Sims, ms[i].Sims)
	}
	return out
}
