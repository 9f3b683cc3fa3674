package serve

import (
	"fmt"
	"strings"

	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

// Signature returns a canonical string identifying a (personal schema,
// Options) pair. Two requests with equal signatures are guaranteed to
// produce the same Report against a fixed repository, so the signature is
// the key for both the completed-report cache and in-flight deduplication.
//
// The schema part serializes the tree in spec syntax including datatypes
// and attribute markers (Tree.String omits datatypes, which the optional
// TypeMatcher depends on). The options part spells out every Options field
// the pipeline reads — the deprecated, ignored AdaptiveTopN is left out, so
// setting it splits neither the cache nor a flight; matchers render through
// matcher.Describe, whose canonical (address-free) output makes
// structurally identical matchers share cache entries.
func Signature(personal *schema.Tree, opts pipeline.Options) string {
	var b strings.Builder
	writeNodeSig(&b, personal.Root())
	b.WriteByte('|')
	writeOptionsSig(&b, opts)
	return b.String()
}

// CandidateSignature identifies the inputs of the element-matching stage
// alone: the personal schema, the element matcher and the MinSim threshold.
// Two requests with equal candidate signatures produce the same
// matcher.FindCandidates result against a fixed repository even when the
// rest of their options (TopN, variant, δ ...) differ — deliberately
// coarser than Signature.
func CandidateSignature(personal *schema.Tree, opts pipeline.Options) string {
	var b strings.Builder
	writeNodeSig(&b, personal.Root())
	fmt.Fprintf(&b, "|ms=%g", opts.MinSim)
	if opts.Matcher != nil {
		b.WriteString(";m=")
		b.WriteString(matcher.Describe(opts.Matcher))
	}
	return b.String()
}

// prepassSignature keys the router's shared pre-pass, which hoists both
// element matching and clustering: the candidate signature extended with
// every option the clustering stage consumes. Still coarser than Signature
// — requests differing only in report-shaping options (TopN, δ, ordering,
// partials, parallelism ...) share one pre-pass.
func prepassSignature(personal *schema.Tree, opts pipeline.Options) string {
	var b strings.Builder
	b.WriteString(CandidateSignature(personal, opts))
	fmt.Fprintf(&b, "|v=%d;agg=%t", int(opts.Variant), opts.Agglomerative)
	if opts.ClusterConfig != nil {
		fmt.Fprintf(&b, ";cc=%+v", *opts.ClusterConfig)
	}
	return b.String()
}

func writeNodeSig(b *strings.Builder, n *schema.Node) {
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
		writeNodeSig(b, c)
	}
	b.WriteByte(')')
}

func writeOptionsSig(b *strings.Builder, o pipeline.Options) {
	fmt.Fprintf(b, "a=%g;k=%g;d=%g;ms=%g;tn=%d;v=%d;alg=%d;ip=%t;oc=%t;sw=%g;p=%d;agg=%t",
		o.Objective.Alpha, o.Objective.K, o.Threshold, o.MinSim, o.TopN,
		int(o.Variant), int(o.Algorithm), o.IncludePartials, o.OrderClusters,
		o.StructureWeight, o.Parallelism, o.Agglomerative)
	if o.ClusterConfig != nil {
		fmt.Fprintf(b, ";cc=%+v", *o.ClusterConfig)
	}
	if o.Matcher != nil {
		b.WriteString(";m=")
		b.WriteString(matcher.Describe(o.Matcher))
	}
	if o.StructureMatcher != nil {
		b.WriteString(";sm=")
		b.WriteString(matcher.Describe(o.StructureMatcher))
	}
}
