// Twophase demonstrates the paper's extensions implemented in this
// library: two-phase matching (localized matchers before clustering,
// structure matchers per cluster — Sec. 2.3's alternative technique),
// agglomerative clustering as an alternative to k-means, and the
// calibrated cost model (Sec. 7 future work) predicting the break-even
// cluster count.
package main

import (
	"fmt"
	"log"
	"time"

	"bellflower"
)

func main() {
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes = 5000
	repo, err := bellflower.Synthetic(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := bellflower.NewMatcher(repo)
	personal := bellflower.MustParseSchema("address(name,email)")

	base := bellflower.DefaultOptions()
	base.MinSim = 0.3

	// 1. Plain medium clustering (k-means).
	plain, err := m.Match(personal, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-means medium:      %4d clusters, %5d mappings, %v\n",
		plain.Clusters, len(plain.Mappings), plain.TotalTime().Round(time.Millisecond))

	// 2. Agglomerative clustering instead of k-means.
	agg := base
	agg.Agglomerative = true
	aggRep, err := m.Match(personal, agg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("agglomerative:       %4d clusters, %5d mappings, %v\n",
		aggRep.Clusters, len(aggRep.Mappings), aggRep.TotalTime().Round(time.Millisecond))

	// 3. Two-phase: structural rescoring inside each cluster.
	sm, err := bellflower.NewStructureMatcher("path")
	if err != nil {
		log.Fatal(err)
	}
	two := base
	two.StructureMatcher = sm
	two.StructureWeight = 0.4
	twoRep, err := m.Match(personal, two)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-phase (path):    %4d clusters, %5d mappings, %v\n",
		twoRep.Clusters, len(twoRep.Mappings), twoRep.TotalTime().Round(time.Millisecond))

	// 4. Cost model: calibrate on the plain run, predict the break-even
	// cluster count for this problem shape.
	model, err := bellflower.CalibrateCostModel(
		plain.ClusterTime.Seconds(),
		float64(plain.Clusters*max(plain.Iterations, 1)*plain.MappingElements),
		plain.GenTime.Seconds(),
		float64(plain.Counters.PartialMappings),
	)
	if err != nil {
		log.Fatal(err)
	}
	perNode := float64(plain.MappingElements) / float64(personal.Len())
	problem := bellflower.CostProblem{
		CandidatesPerNode: []float64{perNode, perNode, perNode},
		Clusters:          float64(plain.Clusters),
		Iterations:        float64(max(plain.Iterations, 1)),
		BnBFraction:       0.1,
	}
	bestC, bestEst, err := model.OptimalClusters(problem, 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncost model: predicted optimal cluster count ≈ %.0f (total %.3fs)\n",
		bestC, bestEst.Total())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
