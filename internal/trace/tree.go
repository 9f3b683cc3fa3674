package trace

import (
	"sort"
	"time"
)

// Node is the JSON-renderable span-tree form of a trace: one node per
// finished span, children ordered by start time. Offsets are relative to
// the tree root's start so a stitched multi-process trace reads as one
// timeline even under modest cross-host clock skew.
type Node struct {
	Name       string            `json:"name"`
	SpanID     string            `json:"span_id"`
	OffsetUS   int64             `json:"offset_us"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Remote     bool              `json:"remote,omitempty"`
	Children   []*Node           `json:"children,omitempty"`
}

// Summary is the wire form of one finished trace: identity, timing and
// the span tree. It is what /v1/traces serves and what ?trace=1 inlines.
type Summary struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	Tree       *Node     `json:"tree,omitempty"`
}

// buildTree builds the span tree from the finished spans and returns its
// root node and root span. Spans whose parent never finished (or lives in a
// snapshot taken mid-flight) attach to the root; with no spans at all the
// root is nil.
func (t *Trace) buildTree() (*Node, *Span) {
	spans := t.Spans()
	if len(spans) == 0 {
		return nil, nil
	}
	nodes := make(map[ID]*Node, len(spans))
	for _, s := range spans {
		n := &Node{
			Name:       s.Name,
			SpanID:     s.ID.String(),
			DurationMS: float64(s.Duration) / float64(time.Millisecond),
			Remote:     s.Remote,
		}
		if len(s.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[s.ID] = n
	}
	// The root is the earliest span whose parent is not itself a finished
	// span of this trace; Spans() is start-ordered, so the first orphan
	// wins. A fully parented set (a cycle) falls back to the first span.
	rootSpan := spans[0]
	for _, s := range spans {
		if _, ok := nodes[s.Parent]; !ok || nodes[s.Parent] == nodes[s.ID] {
			rootSpan = s
			break
		}
	}
	root := nodes[rootSpan.ID]
	for _, s := range spans {
		n := nodes[s.ID]
		n.OffsetUS = s.Start.Sub(rootSpan.Start).Microseconds()
		if n == root {
			continue
		}
		parent, ok := nodes[s.Parent]
		if !ok || parent == n {
			parent = root
		}
		parent.Children = append(parent.Children, n)
	}
	var sortKids func(n *Node)
	sortKids = func(n *Node) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].OffsetUS < n.Children[j].OffsetUS
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	sortKids(root)
	return root, rootSpan
}

// Summarize renders the trace into its wire Summary. The root span's
// timing stands in for the whole trace.
func (t *Trace) Summarize() Summary {
	root, rootSpan := t.buildTree()
	sum := Summary{TraceID: t.id.String(), Tree: root}
	if root != nil {
		sum.Root = root.Name
		sum.DurationMS = root.DurationMS
		sum.Start = rootSpan.Start
	}
	t.mu.Lock()
	sum.Spans = len(t.spans)
	t.mu.Unlock()
	return sum
}
