// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. 5):
//
//   - Table 1a — properties of clusters per variant (useful clusters,
//     average mapping elements, total search space);
//   - Table 1b — mapping generator performance per variant (partial
//     mappings generated by B&B, mappings with Δ ≥ 0.75, time);
//   - Figure 4 — cluster size distribution under no / join / join&remove
//     reclustering;
//   - Figure 5 — percentage of preserved mappings vs threshold δ for the
//     four variants;
//   - Figure 6 — percentage of preserved mappings vs δ for α ∈
//     {0.25, 0.50, 0.75} (medium clusters).
//
// The repository is synthetic (see the package doc of repogen for the
// substitution); absolute numbers differ from the paper but the shapes —
// orderings, reduction factors, curve directions — are the reproduction
// target; cmd/experiments prints them.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
	"bellflower/internal/stats"
)

// Setup fixes the experimental conditions shared by all drivers.
type Setup struct {
	// RepoConfig generates the repository (default: the paper's reference
	// scale, 9759 elements).
	RepoConfig repogen.Config

	// PersonalSpec is the personal schema: the paper's reference
	// experiment uses a three-node schema with nodes "name", "address"
	// and "email" shaped like Fig. 1's s.
	PersonalSpec string

	// MinSim is the element-matcher candidate threshold. The paper keeps
	// every non-zero similarity; 0.25 bounds the noise floor while
	// keeping nearly every repository node a weak candidate.
	MinSim float64

	// Threshold is δ (0.75 in the paper).
	Threshold float64

	// Alpha and K parameterize the objective function.
	Alpha float64
	K     float64
}

// DefaultSetup mirrors the paper's reference experiment.
func DefaultSetup() Setup {
	return Setup{
		RepoConfig:   repogen.DefaultConfig(),
		PersonalSpec: "address(name,email)",
		MinSim:       0.25,
		Threshold:    0.75,
		Alpha:        0.5,
		K:            4,
	}
}

// Env is the shared experimental environment: repository, runner and
// personal schema, built once and reused by all drivers.
type Env struct {
	Setup    Setup
	Repo     *schema.Repository
	Runner   *pipeline.Runner
	Personal *schema.Tree
}

// NewEnv materializes a setup.
func NewEnv(s Setup) (*Env, error) {
	repo, err := repogen.Generate(s.RepoConfig)
	if err != nil {
		return nil, err
	}
	personal, err := schema.ParseSpec(s.PersonalSpec)
	if err != nil {
		return nil, err
	}
	return &Env{
		Setup:    s,
		Repo:     repo,
		Runner:   pipeline.NewRunner(repo),
		Personal: personal,
	}, nil
}

func (e *Env) options(v pipeline.Variant) pipeline.Options {
	return pipeline.Options{
		Objective: objective.Params{Alpha: e.Setup.Alpha, K: e.Setup.K},
		Threshold: e.Setup.Threshold,
		MinSim:    e.Setup.MinSim,
		Variant:   v,
	}
}

// Table1Row is one variant's line of Table 1 (both halves).
type Table1Row struct {
	Variant         pipeline.Variant
	UsefulClusters  int
	AvgElems        float64
	SearchSpace     float64
	SpacePct        float64 // of the tree baseline
	PartialMappings int64
	Mappings        int
	ClusterTime     time.Duration
	GenTime         time.Duration
}

// Table1Result holds Table 1 in the paper's row order
// (small, medium, large, tree).
type Table1Result struct {
	Rows            []Table1Row
	MappingElements int
}

// RunTable1 executes the four variants and fills both halves of Table 1.
func RunTable1(e *Env) (*Table1Result, error) {
	res := &Table1Result{}
	var treeSpace float64
	for _, v := range pipeline.Variants() {
		rep, err := e.Runner.Run(e.Personal, e.options(v))
		if err != nil {
			return nil, err
		}
		if v == pipeline.VariantTree {
			treeSpace = rep.Counters.SearchSpace
		}
		res.MappingElements = rep.MappingElements
		res.Rows = append(res.Rows, Table1Row{
			Variant:         v,
			UsefulClusters:  rep.UsefulClusters,
			AvgElems:        rep.AvgElementsPerUsefulCluster,
			SearchSpace:     rep.Counters.SearchSpace,
			PartialMappings: rep.Counters.PartialMappings,
			Mappings:        len(rep.Mappings),
			ClusterTime:     rep.ClusterTime,
			GenTime:         rep.GenTime,
		})
	}
	for i := range res.Rows {
		if treeSpace > 0 {
			res.Rows[i].SpacePct = 100 * res.Rows[i].SearchSpace / treeSpace
		}
	}
	return res, nil
}

// Render prints Table 1 in the paper's layout.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — mapping elements: %d\n", r.MappingElements)
	b.WriteString("variant\tuseful\tavgME\tsearch-space\t(%)\tpartials\tmappings\tt_cluster\tt_gen\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s\t%d\t%.1f\t%.0f\t%.2f%%\t%d\t%d\t%v\t%v\n",
			row.Variant, row.UsefulClusters, row.AvgElems, row.SearchSpace,
			row.SpacePct, row.PartialMappings, row.Mappings,
			row.ClusterTime.Round(time.Millisecond), row.GenTime.Round(time.Millisecond))
	}
	return b.String()
}

// Fig4Strategy is one reclustering strategy's outcome.
type Fig4Strategy struct {
	Name     string
	Clusters int
	Hist     *stats.Histogram
}

// Fig4Result is the cluster size distribution experiment.
type Fig4Result struct {
	Strategies []Fig4Strategy
}

// RunFig4 clusters the reference problem with three reclustering
// strategies — none, join, join & remove — and reports the cluster size
// distributions (the paper's Fig. 4). Splitting is disabled so the effect
// of join/remove is isolated, as in the paper.
func RunFig4(e *Env) (*Fig4Result, error) {
	cands := matcher.FindCandidates(e.Personal, e.Repo, matcher.NameMatcher{},
		matcher.Config{MinSim: e.Setup.MinSim})
	ix := e.Runner.Index()
	base := cluster.DefaultConfig()
	base.SplitAbove = 0
	strategies := []struct {
		name string
		mod  func(*cluster.Config)
	}{
		{"no reclustering", func(c *cluster.Config) { c.JoinThreshold = 0; c.RemoveBelow = 0 }},
		{"join", func(c *cluster.Config) { c.RemoveBelow = 0 }},
		{"join & remove", func(c *cluster.Config) {}},
	}
	res := &Fig4Result{}
	for _, s := range strategies {
		cfg := base
		s.mod(&cfg)
		cres, err := cluster.KMeans(ix, cands, cfg)
		if err != nil {
			return nil, err
		}
		h := stats.NewHistogram()
		for _, cl := range cres.Clusters {
			h.Observe(cl.Len())
		}
		res.Strategies = append(res.Strategies, Fig4Strategy{
			Name:     s.name,
			Clusters: len(cres.Clusters),
			Hist:     h,
		})
	}
	return res, nil
}

// Render prints the three distributions as aligned histograms.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4 — cluster size distribution by reclustering strategy\n")
	for _, s := range r.Strategies {
		fmt.Fprintf(&b, "\n%s (%d clusters)\n", s.Name, s.Clusters)
		b.WriteString(s.Hist.Render(40))
	}
	return b.String()
}

// Fig5Result is the preserved-mappings experiment over the four variants.
type Fig5Result struct {
	Thresholds []float64
	Labels     []string
	Curves     [][]stats.CurvePoint
}

// RunFig5 measures the percentage of preserved mappings against the
// non-clustered baseline for every variant over δ ∈ [δ0, 1].
func RunFig5(e *Env) (*Fig5Result, error) {
	ths := stats.Thresholds(e.Setup.Threshold, 1.0, 20)
	baseRep, err := e.Runner.Run(e.Personal, e.options(pipeline.VariantTree))
	if err != nil {
		return nil, err
	}
	baseline := baseRep.Deltas()
	res := &Fig5Result{Thresholds: ths}
	for _, v := range pipeline.Variants() {
		var deltas []float64
		if v == pipeline.VariantTree {
			deltas = baseline
		} else {
			rep, err := e.Runner.Run(e.Personal, e.options(v))
			if err != nil {
				return nil, err
			}
			deltas = rep.Deltas()
		}
		res.Labels = append(res.Labels, v.String())
		res.Curves = append(res.Curves, stats.PreservationCurve(baseline, deltas, ths))
	}
	return res, nil
}

// Render prints the curves as a threshold-by-variant table.
func (r *Fig5Result) Render() string {
	return "Figure 5 — percentage of preserved mappings per variant\n" +
		stats.RenderCurves(r.Labels, r.Curves)
}

// Fig6Result is the objective-function-correlation experiment.
type Fig6Result struct {
	Thresholds []float64
	Alphas     []float64
	Curves     [][]stats.CurvePoint
}

// RunFig6 solves the reference problem with α ∈ {0.25, 0.50, 0.75} using
// medium clusters, measuring preservation against the non-clustered
// baseline under the same objective function.
func RunFig6(e *Env) (*Fig6Result, error) {
	ths := stats.Thresholds(e.Setup.Threshold, 1.0, 20)
	res := &Fig6Result{Thresholds: ths, Alphas: []float64{0.25, 0.50, 0.75}}
	for _, alpha := range res.Alphas {
		baseOpts := e.options(pipeline.VariantTree)
		baseOpts.Objective.Alpha = alpha
		baseRep, err := e.Runner.Run(e.Personal, baseOpts)
		if err != nil {
			return nil, err
		}
		medOpts := e.options(pipeline.VariantMedium)
		medOpts.Objective.Alpha = alpha
		medRep, err := e.Runner.Run(e.Personal, medOpts)
		if err != nil {
			return nil, err
		}
		res.Curves = append(res.Curves,
			stats.PreservationCurve(baseRep.Deltas(), medRep.Deltas(), ths))
	}
	return res, nil
}

// Render prints the curves as a threshold-by-alpha table.
func (r *Fig6Result) Render() string {
	labels := make([]string, len(r.Alphas))
	for i, a := range r.Alphas {
		labels[i] = fmt.Sprintf("a=%.2f", a)
	}
	return "Figure 6 — preserved mappings for three objective functions (medium clusters)\n" +
		stats.RenderCurves(labels, r.Curves)
}

// EndToEnd compares total clustered time (clustering + generation) against
// the non-clustered baseline, the paper's "0s + 106.3s vs 12.0s + 23.8s"
// comparison. Each total is the median of endToEndRuns runs.
type EndToEnd struct {
	TreeTotal   time.Duration
	MediumTotal time.Duration
	Speedup     float64
}

// endToEndRuns is the odd number of timed runs per variant RunEndToEnd
// takes the median of, after one untimed warm-up run. A single sample
// swings by a factor of two on a shared box — enough to invert the
// comparison.
const endToEndRuns = 5

// RunEndToEnd measures the end-to-end efficiency improvement of medium
// clustering.
func RunEndToEnd(e *Env) (*EndToEnd, error) {
	median := func(v pipeline.Variant) (time.Duration, error) {
		var times []time.Duration
		for i := 0; i <= endToEndRuns; i++ {
			rep, err := e.Runner.Run(e.Personal, e.options(v))
			if err != nil {
				return 0, err
			}
			if i > 0 { // run 0 warms pools and caches
				times = append(times, rep.ClusterTime+rep.GenTime)
			}
		}
		slices.Sort(times)
		return times[endToEndRuns/2], nil
	}
	out := &EndToEnd{}
	var err error
	if out.TreeTotal, err = median(pipeline.VariantTree); err != nil {
		return nil, err
	}
	if out.MediumTotal, err = median(pipeline.VariantMedium); err != nil {
		return nil, err
	}
	if out.MediumTotal > 0 {
		out.Speedup = float64(out.TreeTotal) / float64(out.MediumTotal)
	}
	return out, nil
}

// Render prints the comparison.
func (r *EndToEnd) Render() string {
	return fmt.Sprintf("End-to-end (median of %d runs) — tree: %v, medium clusters: %v, speedup: %.2fx\n",
		endToEndRuns, r.TreeTotal.Round(time.Millisecond), r.MediumTotal.Round(time.Millisecond), r.Speedup)
}
