package mapgen

import (
	"math"
	"sort"

	"bellflower/internal/cluster"
	"bellflower/internal/objective"
	"bellflower/internal/schema"
)

// PartialMapping is a schema mapping restricted to the personal nodes a
// non-useful cluster can cover (the extension sketched in Sec. 2.3 of the
// paper: "the definition of a schema mapping should be extended with a
// notion of partial schema mapping ... Such partial mappings might,
// nevertheless, be valuable to the user").
//
// Semantics: only personal nodes present in CoveredMask are mapped. The
// personal tree is contracted onto the covered nodes — each covered
// non-root node connects to its nearest covered ancestor — and Δpath is
// computed over the contracted edges. Δsim averages over all |Ns| personal
// nodes, counting missing nodes as similarity 0, so partial mappings never
// outscore a complete mapping with the same per-node similarities.
type PartialMapping struct {
	// Images[i] is the image of personal preorder rank i, or nil when the
	// node is not covered.
	Images []*schema.Node

	// Sims[i] is the element similarity of the pair (0 when uncovered).
	Sims []float64

	// CoveredMask has bit i set when personal preorder rank i is mapped.
	CoveredMask uint64

	// Covered is the number of mapped personal nodes.
	Covered int

	// Score is the decomposed objective value under the contracted-tree
	// semantics above.
	Score objective.Score

	// ClusterID identifies the source cluster.
	ClusterID int
}

// GeneratePartialInCluster searches a (typically non-useful) cluster for
// partial mappings over exactly the personal nodes that have candidates in
// the cluster. Returns nil when fewer than two personal nodes are covered
// (a single mapped node is not an informative partial mapping). Counters
// are accumulated like in GenerateInCluster. The DFS runs on the same
// pooled search state as the complete-mapping searches — dense bitset for
// the 1-to-1 check, dense edge union, pooled suffixBest.
func (g *Generator) GeneratePartialInCluster(cl *cluster.Cluster) ([]PartialMapping, Counters) {
	st := acquireState(g)
	defer st.release()
	n := st.n
	if st.union == nil {
		st.union = objective.NewDenseEdgeUnion(g.ix)
	} else {
		st.union.Retarget(g.ix)
	}
	// Restrict every candidate set to the cluster's members, descending
	// similarity preserved, backing arrays reused; coverage is decided
	// below. The member bits are cleared again right away, keeping the cost
	// proportional to the cluster, not the repository.
	for i := range cl.Elements {
		st.member.Set(cl.Elements[i].Node.ID)
	}
	for i := 0; i < n; i++ {
		set := st.sets[i][:0]
		for _, c := range g.cands.Sets[i].Elems {
			if st.member.Has(c.Node.ID) {
				set = append(set, c)
			}
		}
		st.sets[i] = set
	}
	for i := range cl.Elements {
		st.member.Unset(cl.Elements[i].Node.ID)
	}

	var mask uint64
	numCovered := 0
	for i := 0; i < n; i++ {
		st.images[i] = nil
		st.sims[i] = 0
		if len(st.sets[i]) > 0 {
			numCovered++
			mask |= 1 << uint(i)
		}
	}
	if numCovered < 2 {
		return nil, Counters{}
	}

	// Contract the personal tree: for each covered non-"local root" node,
	// find the nearest covered proper ancestor.
	var edges []contractedEdge
	for _, node := range g.cands.Personal.Nodes() {
		if mask&(1<<uint(node.Pre)) == 0 {
			continue
		}
		for p := node.Parent(); p != nil; p = p.Parent() {
			if mask&(1<<uint(p.Pre)) != 0 {
				edges = append(edges, contractedEdge{p.Pre, node.Pre})
				break
			}
		}
	}

	// Preorder over covered nodes keeps contracted parents before children.
	order := make([]int, 0, numCovered)
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			order = append(order, i)
		}
	}
	ctr := Counters{}
	space := 1.0
	for _, i := range order {
		space *= float64(len(st.sets[i]))
	}
	ctr.SearchSpace = space

	ps := &partialSearch{
		g: g, st: st, cl: cl, order: order, edges: edges, es: len(edges),
		ctr: &ctr, n: n, mask: mask, numCovered: numCovered,
	}
	sb := st.suffixBest[:len(order)+1]
	sb[len(order)] = 0
	for k := len(order) - 1; k >= 0; k-- {
		best := 0.0
		if s := st.sets[order[k]]; len(s) > 0 {
			best = s[0].Sim // restricted sets keep descending-sim order
		}
		sb[k] = sb[k+1] + best
	}
	ps.run(0, 0)
	ctr.Found = int64(len(ps.out))
	g.cfg.Stats.addPartials(ctr.PartialMappings)
	return ps.out, ctr
}

// RankPartials sorts partial mappings into their one total order:
// descending Δ, then ascending cluster ID, then image node IDs position by
// position, an uncovered (nil) position first. Two partial mappings of one
// cluster cover the same personal nodes and differ in some image, so the
// order is total: concatenated shard lists rank to the unsharded list.
func RankPartials(ps []PartialMapping) {
	sort.Slice(ps, func(i, j int) bool { return partialLess(&ps[i], &ps[j]) })
}

func partialLess(a, b *PartialMapping) bool {
	if a.Score.Delta != b.Score.Delta {
		return a.Score.Delta > b.Score.Delta
	}
	if a.ClusterID != b.ClusterID {
		return a.ClusterID < b.ClusterID
	}
	for k, x := range a.Images {
		switch y := b.Images[k]; {
		case x == y: // the same node, or both uncovered
		case x == nil:
			return true
		case y == nil:
			return false
		case x.ID != y.ID:
			return x.ID < y.ID
		}
	}
	return false
}

// contractedEdge is an edge of the personal tree contracted onto the
// covered nodes; parent and child are personal preorder ranks.
type contractedEdge struct{ parent, child int }

type partialSearch struct {
	g          *Generator
	st         *searchState
	cl         *cluster.Cluster
	order      []int // covered preorder ranks, ascending
	edges      []contractedEdge
	es         int
	ctr        *Counters
	out        []PartialMapping
	n          int
	mask       uint64
	numCovered int
}

// deltaPath applies Eq. 2 over the contracted edge count.
func (ps *partialSearch) deltaPath(et int) float64 {
	if ps.es == 0 {
		return 1
	}
	d := 1 - float64(et-ps.es)/(float64(ps.es)*ps.g.ev.Params().K)
	return math.Max(0, math.Min(1, d))
}

func (ps *partialSearch) run(k int, simSum float64) {
	st := ps.st
	if k == len(ps.order) {
		ps.ctr.CompleteMappings++
		dsim := simSum / float64(ps.n) // missing nodes count as 0
		dpath := ps.deltaPath(st.union.Size())
		delta := ps.g.ev.Combine(dsim, dpath)
		if delta >= ps.g.cfg.Threshold {
			images, sims := st.emit(st.images, st.sims)
			pm := PartialMapping{
				Images:      images,
				Sims:        sims,
				CoveredMask: ps.mask,
				Covered:     ps.numCovered,
				ClusterID:   ps.cl.ID,
				Score: objective.Score{
					Delta: delta, Sim: dsim, Path: dpath, Et: st.union.Size(),
				},
			}
			ps.out = append(ps.out, pm)
		}
		return
	}
	i := ps.order[k]
	// contracted parent of i, if any
	parent := -1
	for _, e := range ps.edges {
		if e.child == i {
			parent = e.parent
			break
		}
	}
	for _, c := range st.sets[i] {
		if st.used.Has(c.Node.ID) {
			continue
		}
		ps.ctr.PartialMappings++
		mark := -1
		if parent >= 0 {
			mark = st.union.Push(st.images[parent], c.Node)
		}
		bound := ps.g.ev.Combine(
			(simSum+c.Sim+st.suffixBest[k+1])/float64(ps.n),
			ps.deltaPath(st.union.Size()),
		)
		if !belowFloor(bound, ps.g.cfg.Threshold) {
			st.images[i] = c.Node
			st.sims[i] = c.Sim
			st.used.Set(c.Node.ID)
			ps.run(k+1, simSum+c.Sim)
			st.used.Unset(c.Node.ID)
			st.images[i] = nil
			st.sims[i] = 0
		}
		if parent >= 0 {
			st.union.Pop(mark)
		}
	}
}
