package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

// --- the reference: the signatures as fmt used to spell them ---
//
// Every cache key, and the shard-side check that a router and its shards
// agree on a request's signature, depends on these exact strings; the
// strconv-built versions in signature.go are pinned to them.

func fmtSignature(personal *schema.Tree, o pipeline.Options) string {
	var b strings.Builder
	fmtNodeSig(&b, personal.Root())
	b.WriteByte('|')
	fmt.Fprintf(&b, "a=%g;k=%g;d=%g;ms=%g;tn=%d;v=%d;ip=%t;oc=%t;sw=%g;agg=%t",
		o.Objective.Alpha, o.Objective.K, o.Threshold, o.MinSim, o.TopN,
		int(o.Variant), o.IncludePartials, o.OrderClusters,
		o.StructureWeight, o.Agglomerative)
	if o.ClusterConfig != nil {
		fmt.Fprintf(&b, ";cc=%+v", *o.ClusterConfig)
	}
	if o.Matcher != nil {
		b.WriteString(";m=")
		b.WriteString(matcher.Describe(o.Matcher))
	}
	if o.StructureMatcher != nil {
		b.WriteString(";sm=")
		b.WriteString(matcher.Describe(o.StructureMatcher))
	}
	return b.String()
}

func fmtCandidateSignature(personal *schema.Tree, opts pipeline.Options) string {
	var b strings.Builder
	fmtNodeSig(&b, personal.Root())
	fmt.Fprintf(&b, "|ms=%g", opts.MinSim)
	if opts.Matcher != nil {
		b.WriteString(";m=")
		b.WriteString(matcher.Describe(opts.Matcher))
	}
	return b.String()
}

func fmtPrepassSignature(personal *schema.Tree, opts pipeline.Options) string {
	var b strings.Builder
	b.WriteString(fmtCandidateSignature(personal, opts))
	fmt.Fprintf(&b, "|v=%d;agg=%t", int(opts.Variant), opts.Agglomerative)
	if opts.ClusterConfig != nil {
		fmt.Fprintf(&b, ";cc=%+v", *opts.ClusterConfig)
	}
	return b.String()
}

func fmtNodeSig(b *strings.Builder, n *schema.Node) {
	if n == nil {
		b.WriteString("()")
		return
	}
	b.WriteString(n.Name)
	if n.Kind == schema.KindAttribute {
		b.WriteByte('@')
	}
	if n.Type != "" {
		b.WriteByte(':')
		b.WriteString(n.Type)
	}
	children := n.Children()
	if len(children) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range children {
		if i > 0 {
			b.WriteByte(',')
		}
		fmtNodeSig(b, c)
	}
	b.WriteByte(')')
}

// Property: the three signatures are the strings fmt produced, over random
// schemas and options — every float at its awkward values, explicit cluster
// configurations, plain, composite and structure matchers.
func TestSignaturesMatchTheirFmtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	floats := []float64{0, math.Copysign(0, -1), 0.5, 0.75, 1, 1e-7, 1e21, 123456.789, 5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1), -2.5, 1.0 / 3}
	float := func() float64 { return floats[rng.Intn(len(floats))] }
	matchers := []matcher.Matcher{nil, matcher.NameMatcher{}, matcher.NameMatcher{TokenAware: true}, matcher.DefaultSynonyms(),
		matcher.NewCombined(matcher.Weighted{Matcher: matcher.NameMatcher{}, Weight: 0.7}, matcher.Weighted{Matcher: matcher.DefaultSynonyms(), Weight: 0.3})}
	structures := []matcher.Matcher{nil, matcher.PathContextMatcher{}}
	specs := []string{"a", "book(title,author)", "book(title:string,author@,isbn@:int)", "a(b(c(d(e))),f(g,h))"}

	for round := 0; round < 500; round++ {
		p := schema.MustParseSpec(specs[rng.Intn(len(specs))])
		o := pipeline.Options{
			Threshold: float(), MinSim: float(), StructureWeight: float(),
			TopN: rng.Intn(2000) - 5, Variant: pipeline.Variant(rng.Intn(5)),
			IncludePartials: rng.Intn(2) == 0, OrderClusters: rng.Intn(2) == 0, Agglomerative: rng.Intn(2) == 0,
			Matcher: matchers[rng.Intn(len(matchers))], StructureMatcher: structures[rng.Intn(len(structures))],
		}
		o.Objective.Alpha, o.Objective.K = float(), float()
		if rng.Intn(3) == 0 {
			o.ClusterConfig = &cluster.Config{JoinThreshold: rng.Intn(5), RemoveBelow: rng.Intn(3),
				MaxIterations: rng.Intn(50), Stability: float()}
		}
		if got, want := Signature(p, o), fmtSignature(p, o); got != want {
			t.Fatalf("Signature = %q, fmt reference %q", got, want)
		}
		if got, want := prepassSignature(p, o), fmtPrepassSignature(p, o); got != want {
			t.Fatalf("prepassSignature = %q, fmt reference %q", got, want)
		}
	}
}

func TestSignatureAllocatesOnlyItsResult(t *testing.T) {
	p, o := personal(), testOpts()
	if got := testing.AllocsPerRun(100, func() { _ = Signature(p, o) }); got > 1 {
		t.Errorf("Signature: %v allocs per call, want 1 (the string)", got)
	}
}
