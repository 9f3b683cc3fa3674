// Package trace is bellflower's request-scoped tracing subsystem: cheap,
// dependency-free spans carried via context.Context through the serving
// pipeline (service → router → shard RPC → pipeline stages), stitched
// across process boundaries by the X-Bellflower-Trace header.
//
// The design center is "always on, almost free": a component calls
// StartSpan unconditionally; when the context carries no trace the call
// returns a nil *Span whose methods are no-ops and the only cost is one
// context value lookup. When a trace IS active, starting a span costs a
// couple of small allocations and two time.Now calls — cheap enough to
// instrument every stage of every traced request.
//
// Spans are appended to their Trace on End (never on Start), so a
// snapshot taken while work is still in flight sees only finished,
// immutable spans — no torn reads, no locks held across stage work.
package trace

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ID identifies a trace or a span. IDs are process-unique, not globally
// unique: a trace crossing a process boundary keeps the originator's
// trace ID, and remote span IDs are re-mapped on graft if they collide.
type ID uint64

// String renders the ID as fixed-width hex (the wire and JSON form).
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the fixed-width hex form produced by String.
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q: %w", s, err)
	}
	return ID(v), nil
}

// idCounter seeds process-unique IDs. Seeded from the clock once so two
// processes started together still diverge quickly (the counter strides
// by a large odd constant, mixing the bits on every allocation).
var idCounter atomic.Uint64

func init() { idCounter.Store(uint64(time.Now().UnixNano())) }

func newID() ID {
	// Weyl-sequence stride + xorshift mix: cheap, race-free, and well
	// spread even from adjacent counter values.
	x := idCounter.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	if x == 0 {
		x = 1 // 0 is the "no parent" sentinel
	}
	return ID(x)
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. A span is mutable only
// between StartSpan and End; once appended to its trace it is read-only.
type Span struct {
	ID       ID            `json:"id"`
	Parent   ID            `json:"parent"` // 0 = trace root
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	// Remote marks spans recorded in another process and grafted into
	// this trace from a shard RPC response.
	Remote bool `json:"remote,omitempty"`

	tr    *Trace
	ended int32 // accessed atomically; plain field keeps Span copyable
}

// SetAttr annotates the span. Safe only before End (the span's owner
// goroutine); a nil span ignores the call.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// End finishes the span and appends it to its trace. Safe on a nil span
// and idempotent, so `defer sp.End()` composes with early explicit Ends.
func (s *Span) End() {
	if s == nil || s.tr == nil || !atomic.CompareAndSwapInt32(&s.ended, 0, 1) {
		return
	}
	s.Duration = time.Since(s.Start)
	s.tr.append(s)
}

// Trace accumulates the finished spans of one request. It is safe for
// concurrent use: fan-out goroutines append spans while the root
// goroutine may snapshot.
type Trace struct {
	id ID

	mu    sync.Mutex
	spans []*Span
}

// maxSpans bounds a single trace; a runaway instrumentation loop (or a
// hostile header) degrades to dropped spans, never unbounded memory.
const maxSpans = 4096

func (t *Trace) append(s *Span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Spans returns a snapshot of the finished spans, ordered by start time.
func (t *Trace) Spans() []*Span {
	t.mu.Lock()
	out := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Graft adopts spans finished in another process (decoded from a shard
// response) into this trace. Callers must have arranged parentage via
// the wire context: the remote root's Parent is the local span whose ID
// crossed in the X-Bellflower-Trace header.
func (t *Trace) Graft(spans []Span) {
	t.mu.Lock()
	for i := range spans {
		if len(t.spans) >= maxSpans {
			break
		}
		s := spans[i] // copy; the grafted span is owned by the trace
		s.Remote = true
		t.spans = append(t.spans, &s)
	}
	t.mu.Unlock()
}

// ctxKey carries the active trace position through a context.
type ctxKey struct{}

type active struct {
	tr   *Trace
	span ID // current span: parent for children started from this ctx
}

// New begins a trace with a root span named name and returns the derived
// context carrying it. The caller must End the root span before reading
// the trace.
func New(ctx context.Context, name string) (context.Context, *Trace, *Span) {
	return resume(ctx, name, newID(), 0)
}

// resume begins a trace with an externally assigned trace ID and root
// parent — the receiving half of cross-process propagation.
func resume(ctx context.Context, name string, traceID, parent ID) (context.Context, *Trace, *Span) {
	tr := &Trace{id: traceID}
	sp := &Span{ID: newID(), Parent: parent, Name: name, Start: time.Now(), tr: tr}
	return context.WithValue(ctx, ctxKey{}, &active{tr: tr, span: sp.ID}), tr, sp
}

// FromContext returns the context's active trace, or nil.
func FromContext(ctx context.Context) *Trace {
	if a, ok := ctx.Value(ctxKey{}).(*active); ok {
		return a.tr
	}
	return nil
}

// StartSpan begins a child of the context's current span. With no active
// trace it returns the context unchanged and a nil span (whose End and
// SetAttr are no-ops) — the universal cheap path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	a, ok := ctx.Value(ctxKey{}).(*active)
	if !ok {
		return ctx, nil
	}
	sp := &Span{ID: newID(), Parent: a.span, Name: name, Start: time.Now(), tr: a.tr}
	return context.WithValue(ctx, ctxKey{}, &active{tr: a.tr, span: sp.ID}), sp
}

// Adopt returns base carrying from's active trace position. It lets a
// worker executing on a detached run context record spans into the
// request trace that triggered the run, without inheriting the request
// context's cancellation. With no trace in from, base returns unchanged.
func Adopt(base, from context.Context) context.Context {
	a, ok := from.Value(ctxKey{}).(*active)
	if !ok {
		return base
	}
	return context.WithValue(base, ctxKey{}, a)
}

// Header is the HTTP header propagating trace context across processes.
const Header = "X-Bellflower-Trace"

// HeaderValue encodes the context's trace position as "traceID-spanID",
// or "" when no trace is active.
func HeaderValue(ctx context.Context) string {
	a, ok := ctx.Value(ctxKey{}).(*active)
	if !ok {
		return ""
	}
	return a.tr.id.String() + "-" + a.span.String()
}

// ParseHeader decodes a HeaderValue into (traceID, parentSpanID).
func ParseHeader(v string) (traceID, parent ID, err error) {
	t, p, ok := strings.Cut(v, "-")
	if !ok {
		return 0, 0, fmt.Errorf("trace: malformed header %q", v)
	}
	if traceID, err = ParseID(t); err != nil {
		return 0, 0, err
	}
	if parent, err = ParseID(p); err != nil {
		return 0, 0, err
	}
	return traceID, parent, nil
}

// Resume begins a trace continuing the position encoded in a header
// value: the new trace keeps the sender's trace ID and the root span is
// parented to the sender's span, so when the finished spans ship back
// the sender can Graft them into one stitched tree. An empty or
// malformed value starts a fresh root trace instead.
func Resume(ctx context.Context, headerValue, name string) (context.Context, *Trace, *Span) {
	if headerValue != "" {
		if traceID, parent, err := ParseHeader(headerValue); err == nil {
			return resume(ctx, name, traceID, parent)
		}
	}
	return New(ctx, name)
}
