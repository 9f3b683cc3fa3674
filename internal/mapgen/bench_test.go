package mapgen

import (
	"math/rand"
	"sync"
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// benchCase is one prepared request: everything upstream of mapping
// generation (matching, clustering) is done once, outside the timed loop.
type benchCase struct {
	ix       *labeling.Index
	ev       *objective.Evaluator
	cands    *matcher.Candidates
	clusters []*cluster.Cluster
}

// benchCases prepares requests of the shape the repository benchmark's
// cold-topn workload sends, against the paper-scale synthetic repository
// the daemon serves there: personal schemas are connected 3–7 node subtrees
// with distinct names cut from a noisier forest of the same vocabulary,
// matched with the default name matcher and clustered into medium
// clusters.
var benchCases = sync.OnceValue(func() []benchCase {
	repo := repogen.MustGenerate(repogen.DefaultConfig())
	ix := labeling.NewIndex(repo)
	vocab := matcher.NewNameIndex(repo).Vocabulary(repo.Nodes())
	ccfg := cluster.DefaultConfig()
	ccfg.JoinThreshold = 3

	fcfg := repogen.DefaultConfig()
	fcfg.Seed, fcfg.TargetNodes, fcfg.NoiseRate = 42, 30000, 0.10
	forest := repogen.MustGenerate(fcfg).Nodes()
	rng := rand.New(rand.NewSource(42))

	var cases []benchCase
	for len(cases) < 64 {
		personal := cutSubtree(rng, forest[rng.Intn(len(forest))], 3+len(cases)%5)
		if personal == nil {
			continue
		}
		cands := vocab.FindCandidates(personal, matcher.NameMatcher{}, matcher.Config{MinSim: 0.45})
		res, err := cluster.KMeans(ix, cands, ccfg)
		if err != nil {
			panic(err)
		}
		ev := objective.NewEvaluator(objective.DefaultParams(), ix, personal)
		cases = append(cases, benchCase{ix, ev, cands, res.Clusters})
	}
	return cases
})

// cutSubtree grows a connected k-node subtree downwards from root, picking
// among the children of already chosen nodes whose names are still free;
// nil when the neighbourhood runs out first.
func cutSubtree(rng *rand.Rand, root *schema.Node, k int) *schema.Tree {
	b := schema.NewBuilder("personal")
	built := map[*schema.Node]*schema.Node{root: b.Root(root.Name)}
	names := map[string]bool{root.Name: true}
	frontier := append([]*schema.Node(nil), root.Children()...)
	for b.Size() < k {
		live := frontier[:0]
		for _, c := range frontier {
			if !names[c.Name] {
				live = append(live, c)
			}
		}
		if frontier = live; len(frontier) == 0 {
			return nil
		}
		i := rng.Intn(len(frontier))
		pick := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		built[pick] = b.Element(built[pick.Parent()], pick.Name)
		names[pick.Name] = true
		frontier = append(frontier, pick.Children()...)
	}
	t, err := b.Tree()
	if err != nil {
		return nil
	}
	return t
}

// BenchmarkGenerateTopN measures the generation stage of a top-N request at
// paper scale; one op is one request. Three shapes: cold-topn is the
// repository benchmark's workload of that name (top 10 at δ 0.75, the floor
// rises within a few clusters); tail is the same over its 7-node personal
// schemas only, the requests that set that workload's p99; slow-floor (top
// 50 at δ 0.5) keeps the floor low for most of the search. partials/op is
// the paper's machine-independent work indicator (deterministic). Run with
// -cpu 2 to reproduce the repository benchmark's GOMAXPROCS.
func BenchmarkGenerateTopN(b *testing.B) {
	for _, shape := range []struct {
		name  string
		n     int
		delta float64
		k     int // personal-schema size to keep; 0 keeps every case
	}{{"cold-topn", 10, 0.75, 0}, {"tail", 10, 0.75, 7}, {"slow-floor", 50, 0.5, 0}} {
		var cases []benchCase
		var gens []*Generator
		for _, c := range benchCases() {
			if shape.k == 0 || c.cands.Personal.Len() == shape.k {
				cases = append(cases, c)
				gens = append(gens, New(Config{Threshold: shape.delta}, c.ix, c.ev, c.cands))
			}
		}
		b.Run(shape.name, func(b *testing.B) {
			var partials int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, ctr := gens[i%len(cases)].GenerateTopNStop(cases[i%len(cases)].clusters, shape.n, nil)
				partials += ctr.PartialMappings
				benchSink = len(ms)
			}
			b.ReportMetric(float64(partials)/float64(b.N), "partials/op")
		})
	}
}

var benchSink int
