package trace

import "time"

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
// root node and root span. Each span appears in the tree exactly once. A
// span whose parent never finished (or lives in a snapshot taken
// mid-flight), names itself, or closes a cycle of parent links attaches to
// the root; with no spans at all the root is nil.
func (t *Trace) buildTree() (*Node, *Span) {
	spans := t.Spans()
	if len(spans) == 0 {
		return nil, nil
	}
	index := make(map[ID]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	// The root is the earliest span whose parent is not another finished
	// span of this trace; Spans() is start-ordered, so the first orphan
	// wins. A fully parented set (a cycle) falls back to the first span.
	root := 0
	parent := make([]int, len(spans))
	for i := len(spans) - 1; i >= 0; i-- {
		p, ok := index[spans[i].Parent]
		if !ok || p == i {
			p, root = -1, i
		}
		parent[i] = p
	}
	for i, p := range parent {
		if p < 0 {
			parent[i] = root
		}
	}
	parent[root] = -1
	// Cut every cycle of parent links: walk up from each span until a span
	// already known to reach the root; a walk that meets itself re-parents
	// the span it met to the root, once the walk's spans are settled.
	const (
		unseen = iota
		onPath
		reaches
	)
	state := make([]uint8, len(spans))
	state[root] = reaches
	for i := range spans {
		j := i
		for state[j] == unseen {
			state[j] = onPath
			j = parent[j]
		}
		cycle := state[j] == onPath
		for k := i; state[k] == onPath; k = parent[k] {
			state[k] = reaches
		}
		if cycle {
			parent[j] = root
		}
	}

	nodes := make([]Node, len(spans))
	rootStart := spans[root].Start
	for i, s := range spans {
		n := &nodes[i]
		*n = Node{
			Name:       s.Name,
			SpanID:     s.ID.String(),
			OffsetUS:   s.Start.Sub(rootStart).Microseconds(),
			DurationMS: float64(s.Duration) / float64(time.Millisecond),
			Remote:     s.Remote,
		}
		if len(s.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
	}
	// Spans are start-ordered, so appending in span order lists every
	// node's children by start time.
	for i, p := range parent {
		if p >= 0 {
			nodes[p].Children = append(nodes[p].Children, &nodes[i])
		}
	}
	return &nodes[root], spans[root]
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
