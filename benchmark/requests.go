package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"bellflower"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// The daemon's wire options of the two request shapes. optsTopN is the
// serving default for "give me the best mappings" (bound-driven adaptive
// search); optsEnumerate is the HTTP default and the paper's Table 1
// procedure (enumerate everything at δ 0.75, then truncate).
const (
	optsTopN      = `{"top_n":10,"adaptive_top_n":true}`
	optsEnumerate = `{"top_n":10}`
	topN          = 10
)

// request is one generated match request: the personal-schema spec and the
// options object, exactly as they go on the wire.
type request struct {
	Spec    string
	Options string
}

// body renders the /v1/match JSON body.
func (r request) body() []byte {
	spec, _ := json.Marshal(r.Spec) // a string always marshals
	return []byte(`{"personal":` + string(spec) + `,"options":` + r.Options + `}`)
}

// pipelineOptions mirrors what the daemon builds from r.Options, for the
// in-process reference run.
func (r request) pipelineOptions() bellflower.Options {
	o := bellflower.DefaultOptions()
	o.TopN = topN
	o.AdaptiveTopN = r.Options == optsTopN
	return o
}

// sourceForest is the forest personal schemas are cut from: the
// repository generator's vocabulary with a little naming noise, so requests
// share names with the served repository (some of them misspelled) but are
// never copied from it. It is large — ten times the served repository — so
// that the population of subtrees, and with it the cost profile of a
// request list, barely changes from seed to seed; a 3,000-node forest moved
// cold-topn throughput by ±15% between seeds.
func sourceForest(seed int64) (*schema.Repository, error) {
	cfg := repogen.DefaultConfig()
	cfg.Seed = seed
	cfg.TargetNodes = 100_000
	cfg.NoiseRate = 0.10
	return repogen.Generate(cfg)
}

// generator cuts distinct requests out of one forest. The same seed gives
// the same sequence of requests.
type generator struct {
	rng   *rand.Rand
	nodes []*schema.Node
	seen  map[string]bool // specs handed out so far; no request is generated twice
}

func newGenerator(seed int64) (*generator, error) {
	forest, err := sourceForest(seed)
	if err != nil {
		return nil, err
	}
	return &generator{rng: rand.New(rand.NewSource(seed)), nodes: forest.Nodes(), seen: make(map[string]bool)}, nil
}

// take returns n more distinct requests whose personal schemas are random
// connected subtrees with pairwise-distinct names, rebuilt with
// schema.NewBuilder and rendered in spec syntax. Sizes cycle kMin..kMax, so
// every list has the same size mix.
func (g *generator) take(n, kMin, kMax int, options string) ([]request, error) {
	out := make([]request, 0, n)
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 1000*n {
			return nil, fmt.Errorf("request generator: only %d of %d distinct %d..%d-node schemas after %d attempts",
				len(out), n, kMin, kMax, attempts)
		}
		k := kMin + len(out)%(kMax-kMin+1)
		spec, ok := cutSubtree(g.rng, g.nodes[g.rng.Intn(len(g.nodes))], k)
		if !ok || g.seen[spec] {
			continue
		}
		if _, err := schema.ParseSpec(spec); err != nil {
			continue // a noise-perturbed name outside the spec alphabet
		}
		g.seen[spec] = true
		out = append(out, request{Spec: spec, Options: options})
	}
	return out, nil
}

// cutSubtree grows a connected k-node subtree downwards from root, choosing
// uniformly among the children of already chosen nodes whose names are not
// taken yet. ok is false when the neighbourhood runs out before k nodes.
func cutSubtree(rng *rand.Rand, root *schema.Node, k int) (spec string, ok bool) {
	b := schema.NewBuilder("personal")
	built := map[*schema.Node]*schema.Node{root: b.Root(root.Name)}
	names := map[string]bool{root.Name: true}
	frontier := append([]*schema.Node(nil), root.Children()...)
	for b.Size() < k {
		// Drop candidates whose name got taken since they were queued.
		live := frontier[:0]
		for _, c := range frontier {
			if !names[c.Name] {
				live = append(live, c)
			}
		}
		frontier = live
		if len(frontier) == 0 {
			return "", false
		}
		i := rng.Intn(len(frontier))
		pick := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		parent := built[pick.Parent()]
		if pick.Kind == schema.KindAttribute {
			built[pick] = b.Attribute(parent, pick.Name)
		} else {
			built[pick] = b.Element(parent, pick.Name)
		}
		names[pick.Name] = true
		frontier = append(frontier, pick.Children()...)
	}
	t, err := b.Tree()
	if err != nil {
		return "", false
	}
	return t.String(), true
}
