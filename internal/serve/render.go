package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/trace"
)

// renderPool recycles the scratch buffers renderBody renders into.
var renderPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRender is the largest render scratch, in bytes, kept for reuse;
// a larger one, from an unusually long response, is left to the collector.
const maxPooledRender = 1 << 20

// renderBody is AppendReportJSON into pooled scratch, returning an
// exact-size copy: the one allocation a response keeps, and the bytes a
// report cache entry holds, with no growth garbage behind it.
func renderBody(personal *schema.Tree, rep *pipeline.Report) []byte {
	scratch := renderPool.Get().(*[]byte)
	*scratch = AppendReportJSON((*scratch)[:0], personal, rep)
	body := make([]byte, len(*scratch))
	copy(body, *scratch)
	if cap(*scratch) <= maxPooledRender {
		renderPool.Put(scratch)
	}
	return body
}

// AppendReportJSON appends the HTTP match response for rep — the body of
// POST /v1/match and of one /v1/match/batch result — to dst and returns the
// extended slice. personal is the request's schema: mapping images are
// listed against its nodes in preorder.
//
// The bytes are exactly what encoding/json's Encoder, without SetIndent,
// writes for the response's wire struct (key order, no whitespace between
// tokens, float formatting, HTML-safe string escaping, "mappings":[] when
// empty, partials / incomplete / shard_errors omitted when zero, one
// trailing newline); the struct itself lives on in
// render_test.go as the reference this function is pinned to. The
// rendering is a pure function of (Signature(personal, opts), rep), which
// is what lets the report cache keep it beside the report.
//
// A non-finite float renders as null (the reflection encoder failed the
// whole response instead); no pipeline stage produces one.
func AppendReportJSON(dst []byte, personal *schema.Tree, rep *pipeline.Report) []byte {
	nodes := personal.Nodes()
	dst = append(dst, `{"mappings":[`...)
	for i := range rep.Mappings {
		m := &rep.Mappings[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(append(dst, `{"delta":`...), m.Score.Delta)
		dst = appendFloat(append(dst, `,"sim":`...), m.Score.Sim)
		dst = appendFloat(append(dst, `,"path":`...), m.Score.Path)
		dst = strconv.AppendInt(append(dst, `,"cluster":`...), int64(m.ClusterID), 10)
		dst = append(dst, `,"pairs":[`...)
		for j, img := range m.Images {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendPath(append(dst, `{"personal":`...), nodes[j])
			dst = appendPath(append(dst, `,"repository":`...), img)
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	dst = append(dst, ']')
	if n := len(rep.Partials); n > 0 {
		dst = strconv.AppendInt(append(dst, `,"partials":`...), int64(n), 10)
	}
	dst = appendString(append(dst, `,"pipeline":{"variant":`...), rep.Variant.String())
	dst = strconv.AppendInt(append(dst, `,"mapping_elements":`...), int64(rep.MappingElements), 10)
	dst = strconv.AppendInt(append(dst, `,"clusters":`...), int64(rep.Clusters), 10)
	dst = strconv.AppendInt(append(dst, `,"useful_clusters":`...), int64(rep.UsefulClusters), 10)
	dst = appendFloat(append(dst, `,"search_space":`...), rep.Counters.SearchSpace)
	dst = strconv.AppendInt(append(dst, `,"partial_mappings_generated":`...), rep.Counters.PartialMappings, 10)
	dst = appendFloat(append(dst, `,"match_ms":`...), durationMS(rep.MatchTime))
	dst = appendFloat(append(dst, `,"cluster_ms":`...), durationMS(rep.ClusterTime))
	dst = appendFloat(append(dst, `,"gen_ms":`...), durationMS(rep.GenTime))
	dst = append(dst, '}')
	if rep.Incomplete {
		dst = append(dst, `,"incomplete":true`...)
	}
	if len(rep.ShardErrors) > 0 {
		dst = append(dst, `,"shard_errors":[`...)
		for i, se := range rep.ShardErrors {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"shard":`...), int64(se.Shard), 10)
			dst = appendString(append(dst, `,"error":`...), se.Err)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, reportTail...)
}

// reportTail closes a rendered report: AppendTraceJSON re-opens it there.
const reportTail = "}\n"

// AppendTraceJSON appends body — a rendering by AppendReportJSON — with the
// request's span tree spliced in as its last field, "trace": the ?trace=1
// form of the same response. The span tree is diagnostic output with its
// own wire shape (trace.Summary), encoded by encoding/json, compact like
// the rest of the body.
func AppendTraceJSON(dst, body []byte, sum *trace.Summary) ([]byte, error) {
	tree, err := json.Marshal(sum)
	if err != nil {
		return dst, err
	}
	dst = append(dst, body[:len(body)-len(reportTail)]...)
	dst = append(dst, `,"trace":`...)
	dst = append(dst, tree...)
	return append(dst, reportTail...), nil
}

func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// appendFloat formats f the way encoding/json does: ES6 number-to-string,
// i.e. %f between 1e-6 and 1e21, %e with a minimal exponent outside.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendPath appends n's root-to-node path as a JSON string. The path is
// built in place in dst; only a path holding a byte that JSON (or the
// HTML-safe escaping) must rewrite takes the copying route.
func appendPath(dst []byte, n *schema.Node) []byte {
	dst = append(dst, '"')
	start := len(dst)
	dst = n.AppendPath(dst)
	for _, b := range dst[start:] {
		if !jsonSafe(b) {
			return appendString(dst[:start-1], string(dst[start:]))
		}
	}
	return append(dst, '"')
}

// jsonSafe reports whether encoding/json copies the ASCII byte b into a
// string unchanged under HTML escaping (its htmlSafeSet).
func jsonSafe(b byte) bool {
	return b >= ' ' && b < utf8.RuneSelf && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's default
// (HTML-safe) escaping: <, >, & and control bytes as \u00XX, invalid UTF-8
// as \ufffd, U+2028 / U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
