package cluster

import (
	"errors"
	"fmt"
	"math"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/schema"
)

// Element is one mapping element to be clustered.
type Element struct {
	// Node is the repository node.
	Node *schema.Node

	// Mask has bit i set when the node is a candidate for the personal
	// node with preorder rank i.
	Mask uint64
}

// MaxPersonalNodes is the largest personal schema the clusterer handles: an
// Element's Mask has one bit per personal node.
const MaxPersonalNodes = 64

// ErrSchemaTooLarge is returned (wrapped) for personal schemas of more than
// MaxPersonalNodes nodes; match with errors.Is. The pipeline and serving
// layers re-export this one value, so a request rejected at any depth maps
// to the same answer.
var ErrSchemaTooLarge = errors.New("personal schema too large")

// CheckPersonal returns an ErrSchemaTooLarge error for a personal schema of
// n nodes when n exceeds MaxPersonalNodes.
func CheckPersonal(n int) error {
	if n > MaxPersonalNodes {
		return fmt.Errorf("cluster: %w: %d nodes > the %d-node mask limit", ErrSchemaTooLarge, n, MaxPersonalNodes)
	}
	return nil
}

// Cluster is a group of mapping elements from a single repository tree.
type Cluster struct {
	// ID is the cluster's index in the result.
	ID int

	// Medoid is the mapping element at the cluster's center of weight.
	Medoid *schema.Node

	// Elements are the member mapping elements.
	Elements []Element

	// TreeID is the repository tree all members belong to.
	TreeID int
}

// Mask returns the union of the member masks: which personal nodes this
// cluster can supply a mapping element for.
func (c *Cluster) Mask() uint64 {
	var m uint64
	for _, e := range c.Elements {
		m |= e.Mask
	}
	return m
}

// Useful reports whether the cluster holds at least one mapping element for
// every personal node (full = bitmask of all personal preorder ranks).
// Only useful clusters can produce complete schema mappings (Sec. 2.3).
func (c *Cluster) Useful(full uint64) bool { return c.Mask()&full == full }

// Len returns the number of member elements.
func (c *Cluster) Len() int { return len(c.Elements) }

// Config controls the clustering run. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// JoinThreshold merges clusters whose medoids are at tree distance
	// <= JoinThreshold during reclustering; 0 disables joining. The
	// paper's variants: 2 = "small clusters", 3 = "medium", 4 = "large".
	JoinThreshold int

	// RemoveBelow deletes clusters with fewer elements during
	// reclustering; 0 disables removal. Freed elements may join
	// neighbouring clusters in the next iteration.
	RemoveBelow int

	// SplitAbove breaks clusters larger than this into two around their
	// farthest element pair; 0 disables splitting. An extension for the
	// paper's "huge clusters" problem.
	SplitAbove int

	// MaxIterations bounds the k-means loop.
	MaxIterations int

	// Stability is the convergence fraction: the loop stops when fewer
	// than Stability × #elements switch clusters and the cluster count
	// changes by less than Stability × #clusters (the paper uses 5%).
	Stability float64
}

// DefaultConfig returns the paper's "medium clusters" configuration.
// SplitAbove implements the huge-cluster handling the paper performed
// manually ("huge clusters ... are removed 'manually' if necessary"):
// without it, the few very large repository trees keep their candidate
// regions in single oversized clusters and dominate the search space.
func DefaultConfig() Config {
	return Config{
		JoinThreshold: 3,
		RemoveBelow:   2,
		SplitAbove:    60,
		MaxIterations: 12,
		Stability:     0.05,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxIterations < 1 {
		return fmt.Errorf("cluster: MaxIterations %d < 1", c.MaxIterations)
	}
	if c.Stability < 0 || c.Stability > 1 {
		return fmt.Errorf("cluster: Stability %v outside [0,1]", c.Stability)
	}
	if c.JoinThreshold < 0 || c.RemoveBelow < 0 || c.SplitAbove < 0 {
		return fmt.Errorf("cluster: negative threshold")
	}
	return nil
}

// Result is the outcome of a clustering run.
type Result struct {
	// Clusters are the final clusters, ID-ordered.
	Clusters []*Cluster

	// Iterations is the number of k-means iterations executed.
	Iterations int

	// Moves[i] is the number of elements that switched clusters in
	// iteration i; used to study convergence behaviour.
	Moves []int

	// Unassigned counts elements that ended up in no cluster (their tree
	// holds no centroid, or their cluster was removed in the final
	// iteration).
	Unassigned int

	// Loaded counts the elements the run stored and clustered. KMeans loads
	// only the trees holding an MEmin candidate, because no other tree can
	// receive a centroid; the other algorithms load every element.
	Loaded int

	// MedoidRuns counts the medoid-kernel runs of a k-means run: the
	// recompute step's, plus one per cluster join merged and per half
	// split cut. MedoidsKept counts the clusters the recompute step skipped
	// because their member set had not changed, and so neither had their
	// medoid. Both are zero for the other algorithms.
	MedoidRuns, MedoidsKept int
}

// FullMask returns the mask with one bit set per node of an n-node personal
// schema, n ≤ MaxPersonalNodes: what Cluster.Useful compares against.
func FullMask(n int) uint64 {
	if n > MaxPersonalNodes {
		panic("cluster: personal schema too large for bitmask")
	}
	if n == MaxPersonalNodes {
		return math.MaxUint64
	}
	return uint64(1)<<uint(n) - 1
}

// KMeans runs the adapted k-means algorithm (Alg. 1 of the paper) over the
// mapping elements of cands.
func KMeans(ix *labeling.Index, cands *matcher.Candidates, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := CheckPersonal(cands.Personal.Len()); err != nil {
		return nil, err
	}
	st := newState(ix, cands, cands.MinSet())
	defer st.release()
	st.cfg = cfg
	st.seed(cands)
	ix.BuildAuxForest(st.node, &st.forest)
	res := &Result{Moves: make([]int, 0, min(cfg.MaxIterations, 16))}
	prevClusters := len(st.clusters)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		moves := st.assign()
		st.rebuild()
		st.recomputeMedoids()
		st.join()
		st.remove()
		st.split()
		res.Iterations++
		res.Moves = append(res.Moves, moves)
		// Convergence: element moves and cluster-count change both below
		// the stability fraction. The fraction is of every element, loaded
		// or not.
		stableMoves := float64(moves) <= cfg.Stability*float64(st.all)
		dc := len(st.clusters) - prevClusters
		if dc < 0 {
			dc = -dc
		}
		stableCount := float64(dc) <= cfg.Stability*math.Max(1, float64(prevClusters))
		prevClusters = len(st.clusters)
		if iter > 0 && stableMoves && stableCount {
			break
		}
	}
	st.emit(res)
	res.MedoidRuns, res.MedoidsKept = st.medoidRuns, st.medoidsKept
	return res, nil
}

// TreeClusters returns the non-clustered baseline: every repository tree
// that holds at least one mapping element becomes one cluster (the paper's
// "tree clusters" rows).
func TreeClusters(ix *labeling.Index, cands *matcher.Candidates) *Result {
	st := newState(ix, cands, -1)
	defer st.release()
	n := len(st.node)
	st.data = resize(st.data, n)
	for lo := 0; lo < n; {
		hi := lo
		for ; hi < n && st.tree[hi] == st.tree[lo]; hi++ {
			st.data[hi] = int32(hi)
		}
		// A tree's elements are a run of the universe, already in the
		// order the kernel wants: no gather.
		med := lo + ix.Medoid(st.node[lo:hi], &st.medoid)
		st.clusters = append(st.clusters, clusterRef{off: int32(lo), n: int32(hi - lo), medoid: int32(med)})
		lo = hi
	}
	res := &Result{}
	st.emit(res)
	return res
}
