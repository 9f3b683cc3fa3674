package serve

import (
	"fmt"
	"math"
	"strconv"

	"bellflower/internal/cluster"
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
	b := appendNodeSig(make([]byte, 0, sigBufSize), personal.Root())
	b = append(b, '|')
	return string(appendOptionsSig(b, opts))
}

// sigBufSize keeps a typical signature's scratch buffer on the caller's
// stack: the only allocation left is the returned string.
const sigBufSize = 256

// appendCandidateSig appends the inputs of the element-matching stage alone:
// the personal schema, the element matcher and the MinSim threshold. Two
// requests that agree on them produce the same matcher.FindCandidates
// result against a fixed repository.
func appendCandidateSig(b []byte, personal *schema.Tree, opts pipeline.Options) []byte {
	b = appendNodeSig(b, personal.Root())
	b = appendSigFloat(append(b, "|ms="...), opts.MinSim)
	if opts.Matcher != nil {
		b = append(b, ";m="...)
		b = append(b, matcher.Describe(opts.Matcher)...)
	}
	return b
}

// prepassSignature keys the router's shared pre-pass, which hoists both
// element matching and clustering: the candidate signature extended with
// every option the clustering stage consumes. Still coarser than Signature
// — requests differing only in report-shaping options (TopN, δ, ordering,
// partials ...) share one pre-pass flight.
func prepassSignature(personal *schema.Tree, opts pipeline.Options) string {
	b := appendCandidateSig(make([]byte, 0, sigBufSize), personal, opts)
	b = strconv.AppendInt(append(b, "|v="...), int64(opts.Variant), 10)
	b = strconv.AppendBool(append(b, ";agg="...), opts.Agglomerative)
	return string(appendClusterConfigSig(b, opts.ClusterConfig))
}

func appendNodeSig(b []byte, n *schema.Node) []byte {
	if n == nil {
		return append(b, "()"...)
	}
	b = append(b, n.Name...)
	if n.Kind == schema.KindAttribute {
		b = append(b, '@')
	}
	if n.Type != "" {
		b = append(b, ':')
		b = append(b, n.Type...)
	}
	children := n.Children()
	if len(children) == 0 {
		return b
	}
	b = append(b, '(')
	for i, c := range children {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendNodeSig(b, c)
	}
	return append(b, ')')
}

func appendOptionsSig(b []byte, o pipeline.Options) []byte {
	b = appendSigFloat(append(b, "a="...), o.Objective.Alpha)
	b = appendSigFloat(append(b, ";k="...), o.Objective.K)
	b = appendSigFloat(append(b, ";d="...), o.Threshold)
	b = appendSigFloat(append(b, ";ms="...), o.MinSim)
	b = strconv.AppendInt(append(b, ";tn="...), int64(o.TopN), 10)
	b = strconv.AppendInt(append(b, ";v="...), int64(o.Variant), 10)
	b = strconv.AppendBool(append(b, ";ip="...), o.IncludePartials)
	b = strconv.AppendBool(append(b, ";oc="...), o.OrderClusters)
	b = appendSigFloat(append(b, ";sw="...), o.StructureWeight)
	b = strconv.AppendBool(append(b, ";agg="...), o.Agglomerative)
	b = appendClusterConfigSig(b, o.ClusterConfig)
	if o.Matcher != nil {
		b = append(b, ";m="...)
		b = append(b, matcher.Describe(o.Matcher)...)
	}
	if o.StructureMatcher != nil {
		b = append(b, ";sm="...)
		b = append(b, matcher.Describe(o.StructureMatcher)...)
	}
	return b
}

// appendSigFloat appends f as fmt's %g prints it: strconv's shortest 'g'
// form, read from sigFloatText when f is one of the values most requests
// carry.
func appendSigFloat(b []byte, f float64) []byte {
	for i, bits := range &sigFloatBits {
		if bits == math.Float64bits(f) {
			return append(b, sigFloatText[i]...)
		}
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// sigFloatText spells every float of pipeline.DefaultOptions, and 0 and 1,
// as appendSigFloat's strconv call does. Matching on sigFloatBits keeps -0
// printing "-0".
var sigFloatBits, sigFloatText = func() (bits [7]uint64, text [7]string) {
	d := pipeline.DefaultOptions()
	for i, f := range [...]float64{d.Objective.Alpha, d.Objective.K, d.Threshold, d.MinSim, d.StructureWeight, 0, 1} {
		bits[i], text[i] = math.Float64bits(f), strconv.FormatFloat(f, 'g', -1, 64)
	}
	return bits, text
}()

// appendClusterConfigSig spells out an explicit clustering configuration.
// No wire surface sets one, so this stays on fmt's struct printer.
func appendClusterConfigSig(b []byte, cc *cluster.Config) []byte {
	if cc == nil {
		return b
	}
	return fmt.Appendf(b, ";cc=%+v", *cc)
}
