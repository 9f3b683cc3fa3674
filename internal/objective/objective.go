// Package objective implements Bellflower's objective function Δ(s,t)
// (Sec. 3 of the paper):
//
//	Δsim(s,t)  = (1/|Ns|) Σ_{n∈Ns} sim(n, n′)                      (Eq. 1)
//	Δpath(s,t) = 1 − (|Et| − |Es|) / (|Es|·K)                       (Eq. 2)
//	Δ(s,t)     = α·Δsim(s,t) + (1−α)·Δpath(s,t)                     (Eq. 3)
//
// Δsim simulates localized heuristics (name similarity) and Δpath simulates
// structural heuristics; α trades them off. |Et| is the number of edges of
// the mapping subtree t — the union of the tree paths that the personal
// schema's edges map to (Def. 2). K is the path-length normalization
// constant, determined by the maximum path length the system tolerates.
package objective

import (
	"fmt"
	"math"

	"bellflower/internal/labeling"
	"bellflower/internal/schema"
)

// Params are the tunables of the objective function.
type Params struct {
	// Alpha weighs name similarity (Δsim) against path-length similarity
	// (Δpath); Fig. 6 of the paper varies it over {0.25, 0.50, 0.75}.
	Alpha float64

	// K is the normalization constant of Eq. 2: the average number of extra
	// path edges per personal edge at which Δpath reaches 0.
	K float64
}

// DefaultParams mirror the paper's default experiment configuration
// (α = 0.5; K chosen from the maximum tolerated path stretch).
func DefaultParams() Params { return Params{Alpha: 0.5, K: 4} }

// Validate checks parameter ranges.
func (p Params) Validate() error {
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("objective: alpha %v outside [0,1]", p.Alpha)
	}
	if p.K <= 0 {
		return fmt.Errorf("objective: K %v must be positive", p.K)
	}
	return nil
}

// Score is the decomposed value of the objective function for one mapping.
type Score struct {
	Delta float64 // combined similarity index Δ(s,t)
	Sim   float64 // Δsim component
	Path  float64 // Δpath component
	Et    int     // |Et|: edges of the mapping subtree t
}

// Evaluator scores complete schema mappings for a fixed personal schema.
type Evaluator struct {
	params   Params
	ix       *labeling.Index
	personal *schema.Tree
	es       int       // |Es|
	dpath    []float64 // dpath[et] = Eq. 2 at |Et| = et, see DeltaPath
}

// maxPathTable caps the Δpath table: K has no upper limit, and a table is
// only worth its memory over the |Et| range a search actually visits.
const maxPathTable = 4096

// NewEvaluator returns an evaluator; it panics on invalid params so
// configuration errors surface at construction time.
func NewEvaluator(params Params, ix *labeling.Index, personal *schema.Tree) *Evaluator {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	e := &Evaluator{params: params, ix: ix, personal: personal, es: personal.NumEdges()}
	// Δpath reaches 0 at |Et| = |Es|·(K+1); the table runs a little past it
	// so that every non-trivial value is a lookup.
	size := math.Min(math.Ceil(float64(e.es)*(params.K+2)), maxPathTable)
	e.dpath = make([]float64, int(size))
	for et := range e.dpath {
		e.dpath[et] = e.deltaPath(et)
	}
	return e
}

// Params returns the evaluator's parameters.
func (e *Evaluator) Params() Params { return e.params }

// Score evaluates a complete mapping. images[i] is the repository image of
// the personal node with preorder rank i; sims[i] is its element similarity
// sim(n, n′). All images must lie in one repository tree.
func (e *Evaluator) Score(images []*schema.Node, sims []float64) Score {
	if len(images) != e.personal.Len() || len(sims) != len(images) {
		panic("objective: assignment length mismatch")
	}
	simSum := 0.0
	for _, s := range sims {
		simSum += s
	}
	dsim := simSum / float64(len(sims))

	et := 0
	if e.es > 0 {
		pairs := make([][2]*schema.Node, 0, e.es)
		for _, n := range e.personal.Nodes() {
			if p := n.Parent(); p != nil {
				pairs = append(pairs, [2]*schema.Node{images[p.Pre], images[n.Pre]})
			}
		}
		et = e.ix.PathLengthSum(pairs)
	}
	dpath := e.DeltaPath(et)
	return Score{
		Delta: e.Combine(dsim, dpath),
		Sim:   dsim,
		Path:  dpath,
		Et:    et,
	}
}

// DeltaPath computes Eq. 2 for a given |Et|, clamped to [0,1]. (For trees
// |Et| ≥ |Es| always holds — the mapping subtree is a connected subtree
// containing |Ns| distinct nodes — so the clamp only guards the upper side
// for degenerate single-node schemas.)
//
// The mapping search evaluates Δpath at every node assignment, so the
// values over the reachable |Et| range are tabulated per evaluator with the
// same expression: a lookup is bit-identical to the formula.
func (e *Evaluator) DeltaPath(et int) float64 {
	if uint(et) < uint(len(e.dpath)) {
		return e.dpath[et]
	}
	return e.deltaPath(et)
}

func (e *Evaluator) deltaPath(et int) float64 {
	if e.es == 0 {
		// A single-node personal schema has no paths to compare.
		return 1
	}
	d := 1 - float64(et-e.es)/(float64(e.es)*e.params.K)
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// Combine applies Eq. 3 to precomputed components.
func (e *Evaluator) Combine(dsim, dpath float64) float64 {
	return e.params.Alpha*dsim + (1-e.params.Alpha)*dpath
}
