package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// enumerateThenTruncate is the suites' reference for a top-N request: the
// same request with TopN = 0 — the threshold search, whose answer is the
// whole set — cut to the first n entries of its ranking.
func enumerateThenTruncate(t testing.TB, r *Runner, personal *schema.Tree, opts Options, n int) []mapgen.Mapping {
	t.Helper()
	opts.TopN = 0
	rep, err := r.Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mappings) > n {
		return rep.Mappings[:n]
	}
	return rep.Mappings
}

// sameMappings asserts byte identity: scores, order, cluster, images, sims.
func sameMappings(t testing.TB, label string, got, want []mapgen.Mapping) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d mappings, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Score != w.Score || g.ClusterID != w.ClusterID {
			t.Fatalf("%s: rank %d: %+v in cluster %d, want %+v in cluster %d",
				label, i, g.Score, g.ClusterID, w.Score, w.ClusterID)
		}
		for k := range w.Images {
			if g.Images[k] != w.Images[k] || g.Sims[k] != w.Sims[k] {
				t.Fatalf("%s: rank %d image %d: %v sim %v, want %v sim %v",
					label, i, k, g.Images[k], g.Sims[k], w.Images[k], w.Sims[k])
			}
		}
	}
}

// randomPersonal builds a random k-node personal schema over names sampled
// from the repository, so candidate sets are never trivial.
func randomPersonal(rng *rand.Rand, repo *schema.Repository, k int) *schema.Tree {
	nodes := repo.Nodes()
	name := func() string { return nodes[rng.Intn(len(nodes))].Name }
	b := schema.NewBuilder("personal")
	parents := []*schema.Node{b.Root(name())}
	for len(parents) < k {
		parents = append(parents, b.Element(parents[rng.Intn(len(parents))], name()))
	}
	return b.MustTree()
}

// TestTopNEqualsEnumerateThenTruncate is the pipeline-level equivalence
// property: over random repositories and personal schemas of 2–7 nodes,
// every clustering (the four variants and agglomerative), δ and N, with
// and without the two-phase structure matcher, and with the
// partial-mapping and cluster-ordering extensions rotating through, a
// top-N report carries exactly the mappings — scores and order — and the
// partial mappings of the enumerate-then-truncate reference, owns its
// memory, and agrees with the reference on every figure the bound does
// not change.
func TestTopNEqualsEnumerateThenTruncate(t *testing.T) {
	type clustering struct {
		variant       Variant
		agglomerative bool
	}
	clusterings := []clustering{
		{VariantSmall, false}, {VariantMedium, false}, {VariantLarge, false},
		{VariantTree, false}, {VariantMedium, true},
	}
	structures := []matcher.Matcher{nil, matcher.PathContextMatcher{}}
	combo, nonEmpty := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		cfg := repogen.DefaultConfig()
		cfg.Seed, cfg.TargetNodes = seed, 300+50*int(seed)
		repo := repogen.MustGenerate(cfg)
		r := NewRunner(repo)
		personal := randomPersonal(rand.New(rand.NewSource(seed*7919)), repo, 1+int(seed))
		for _, cl := range clusterings {
			for _, delta := range []float64{0.5, 0.75, 0.9} {
				for _, sm := range structures {
					opts := DefaultOptions()
					opts.MinSim = 0.4
					opts.Variant, opts.Agglomerative = cl.variant, cl.agglomerative
					opts.Threshold = delta
					opts.StructureMatcher = sm
					opts.IncludePartials = true
					ref, err := r.Run(personal, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(ref.Mappings) > 0 {
						nonEmpty++
					}
					for _, n := range []int{1, 5, 10, 50} {
						want := ref.Mappings
						if len(want) > n {
							want = want[:n]
						}
						combo++
						o := opts
						o.TopN = n
						o.IncludePartials, o.OrderClusters = combo&1 != 0, combo&2 != 0
						o.AdaptiveTopN = combo&4 != 0 // ignored
						label := fmt.Sprintf("seed %d %v agg=%v δ=%v sm=%v N=%d partials=%v order=%v",
							seed, cl.variant, cl.agglomerative, delta, sm != nil, n, o.IncludePartials, o.OrderClusters)
						rep, err := r.Run(personal, o)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameMappings(t, label, rep.Mappings, want)
						if cap(rep.Mappings) != len(rep.Mappings) {
							t.Errorf("%s: report holds %d mappings in a backing array of %d", label, len(rep.Mappings), cap(rep.Mappings))
						}
						if rep.Counters.SearchSpace != ref.Counters.SearchSpace || rep.UsefulClusters != ref.UsefulClusters ||
							rep.Clusters != ref.Clusters || rep.MappingElements != ref.MappingElements {
							t.Errorf("%s: exact figures differ: %+v vs reference %+v", label, rep.Counters, ref.Counters)
						}
						if rep.Counters.PartialMappings > ref.Counters.PartialMappings {
							t.Errorf("%s: bounded search generated %d partial mappings, enumeration %d",
								label, rep.Counters.PartialMappings, ref.Counters.PartialMappings)
						}
						if o.IncludePartials {
							if len(rep.Partials) != len(ref.Partials) {
								t.Fatalf("%s: %d partial mappings, want %d", label, len(rep.Partials), len(ref.Partials))
							}
							for i := range ref.Partials {
								g, w := &rep.Partials[i], &ref.Partials[i]
								if g.Score != w.Score || g.ClusterID != w.ClusterID || !slices.Equal(g.Images, w.Images) {
									t.Fatalf("%s: partial %d is %+v in cluster %d, want %+v in cluster %d",
										label, i, g.Score, g.ClusterID, w.Score, w.ClusterID)
								}
							}
						} else if len(rep.Partials) != 0 {
							t.Errorf("%s: partial mappings nobody asked for", label)
						}
					}
				}
			}
		}
	}
	if nonEmpty < 30 {
		t.Errorf("only %d of the reference runs found any mapping: the corpus is too thin to pin anything", nonEmpty)
	}
}

// cancelOnRescore is a structure matcher that cancels the run's context
// the first time the generation stage consults it — a deterministic probe
// of cancellation in the middle of stage 3, after clustering and before
// the search claims its first cluster.
type cancelOnRescore struct{ cancel context.CancelFunc }

func (m cancelOnRescore) Name() string { return "cancel-on-rescore" }

func (m cancelOnRescore) Similarity(p, r *schema.Node) float64 {
	m.cancel()
	return 1
}

func TestRunContextCancelledMidGeneration(t *testing.T) {
	r := NewRunner(smallRepo())
	for _, topN := range []int{0, 5} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := DefaultOptions()
		opts.MinSim = 0.3
		opts.TopN = topN
		opts.StructureMatcher = cancelOnRescore{cancel}
		rep, err := r.RunContext(ctx, personBooks(), opts)
		if !errors.Is(err, context.Canceled) || rep != nil {
			t.Errorf("TopN %d: report %v, err %v; want no report and context.Canceled", topN, rep != nil, err)
		}
		cancel()
	}
}

// A warm top-N generation stage allocates what it hands back — the report,
// its cluster sizes and the compact mapping list — plus the useful/non-useful
// split, the evaluator, the generator and the search's emission slabs (30
// allocations on this fixture, the slices growing by doubling). Cluster
// ordering and two-phase rescoring add a constant on top, whatever the
// number of clusters: they take their member sets from a pool rather than
// building a map per cluster.
func TestWarmTopNGenerationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := NewRunner(smallRepo())
	personal := personBooks()
	base := DefaultOptions()
	base.MinSim = 0.3
	base.TopN = 5
	cands := r.MatchCandidates(personal, matcher.NameMatcher{}, matcher.Config{MinSim: base.MinSim})
	clusters, iterations, err := ComputeClusters(r.Index(), cands, base)
	if err != nil {
		t.Fatal(err)
	}
	useful, _ := splitUseful(clusters, personal.Len())
	if len(useful) < 8 {
		t.Fatalf("fixture has %d useful clusters; a per-cluster allocation would hide in the noise", len(useful))
	}
	run := func(opts Options) func() {
		return func() {
			rep, err := r.RunWithClusters(context.Background(), personal, cands, clusters, iterations, opts)
			if err != nil || len(rep.Mappings) == 0 {
				t.Fatalf("run: %d mappings, err %v", len(rep.Mappings), err)
			}
		}
	}
	plain := testing.AllocsPerRun(20, run(base))

	ordered := base
	ordered.OrderClusters = true
	// Beyond the plain run: the scored slice, sort.SliceStable's swapper
	// and closure.
	if got := testing.AllocsPerRun(20, run(ordered)); got > plain+4 {
		t.Errorf("OrderClusters: %v allocations per warm run, %v without it: not independent of the %d useful clusters",
			got, plain, len(useful))
	}

	twoPhase := base
	twoPhase.StructureMatcher = matcher.PathContextMatcher{}
	rescore := testing.AllocsPerRun(20, func() { r.rescoreUseful(cands, useful, twoPhase) })
	// Beyond the plain run and the rescored candidate copy itself: the
	// second generator and the membership closure.
	if got := testing.AllocsPerRun(20, run(twoPhase)); got > plain+rescore+3 {
		t.Errorf("StructureMatcher: %v allocations per warm run, %v plain + %v for the rescored copy",
			got, plain, rescore)
	}
	if plain > 32 {
		t.Errorf("plain warm top-N generation stage: %v allocations per run", plain)
	}
}
