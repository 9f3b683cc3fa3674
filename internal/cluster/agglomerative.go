package cluster

import (
	"fmt"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
)

// Agglomerative clustering is the alternative clustering algorithm (the
// paper's Sec. 7 asks for "other distance measures" and related work
// clusters schemas hierarchically, e.g. XClust): single-linkage
// agglomerative clustering with a stopping threshold. Merging the closest
// pair until the minimum inter-cluster distance exceeds t is equivalent to
// taking the connected components of the graph that links elements at tree
// distance ≤ t, which is how it is computed here — O(m²) per tree with the
// O(1) labelled distance, no iteration, no seeding sensitivity.
//
// Compared to the adapted k-means it needs no MEmin seeding and always
// converges in one pass, but it cannot react to the personal schema's
// candidate structure and single linkage chains through dense regions;
// the ablation benchmark contrasts the two.

// AgglomerativeConfig controls Agglomerative.
type AgglomerativeConfig struct {
	// MergeThreshold links elements at tree distance ≤ MergeThreshold;
	// clusters are the connected components. Plays the role of the
	// k-means variants' join threshold.
	MergeThreshold int

	// MaxClusterSize splits oversized components into preorder-contiguous
	// chunks (0 = unlimited), the huge-cluster guard.
	MaxClusterSize int
}

// Validate checks the configuration.
func (c AgglomerativeConfig) Validate() error {
	if c.MergeThreshold < 0 {
		return fmt.Errorf("cluster: negative MergeThreshold")
	}
	if c.MaxClusterSize < 0 {
		return fmt.Errorf("cluster: negative MaxClusterSize")
	}
	return nil
}

// Agglomerative clusters the mapping elements of cands by single-linkage
// with a distance threshold.
func Agglomerative(ix *labeling.Index, cands *matcher.Candidates, cfg AgglomerativeConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := CheckPersonal(cands.Personal.Len()); err != nil {
		return nil, err
	}
	st := newState(ix, cands, -1)
	defer st.release()
	// Single linkage is the k-means join step run once over singleton
	// clusters: a lone element is its own medoid, so "medoids within the
	// threshold" links exactly the element pairs within it, and join's
	// union-find leaves the connected components, each in the place of
	// its first element with its members ascending.
	st.data = resize(st.data, len(st.node))
	for e := range st.node {
		st.data[e] = int32(e)
		st.clusters = append(st.clusters, clusterRef{off: int32(e), n: 1, medoid: int32(e)})
	}
	st.cfg = Config{JoinThreshold: cfg.MergeThreshold}
	st.join()
	st.chunk(cfg.MaxClusterSize)
	res := &Result{Iterations: 1}
	st.emit(res)
	return res, nil
}

// chunk cuts every cluster of more than max members (0 = unlimited) into
// consecutive pieces of at most max. Members are in preorder, so a piece is
// a run of preorder neighbours.
func (st *state) chunk(max int) {
	if max <= 0 {
		return
	}
	out := st.spare[:0]
	for _, ref := range st.clusters {
		if int(ref.n) <= max {
			out = append(out, ref)
			continue
		}
		for c := int32(0); c < ref.n; c += int32(max) {
			piece := clusterRef{off: ref.off + c, n: min(int32(max), ref.n-c)}
			piece.medoid = st.medoidOf(st.members(piece))
			out = append(out, piece)
		}
	}
	st.clusters, st.spare = out, st.clusters
}
