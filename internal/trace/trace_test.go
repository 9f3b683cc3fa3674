package trace

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNoTraceIsNoOp(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "x")
	if sp != nil {
		t.Fatal("StartSpan without a trace must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without a trace must return the context unchanged")
	}
	sp.End()             // must not panic
	sp.SetAttr("k", "v") // must not panic
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on a bare context must be nil")
	}
	if HeaderValue(ctx) != "" {
		t.Fatal("HeaderValue on a bare context must be empty")
	}
}

func TestSpanTreeParentage(t *testing.T) {
	ctx, tr, root := New(context.Background(), "request")
	cctx, child := StartSpan(ctx, "stage")
	_, grand := StartSpan(cctx, "substage")
	grand.SetAttr("shard", "2")
	grand.End()
	child.End()
	// Sibling started from the original ctx parents to root, not stage.
	_, sib := StartSpan(ctx, "merge")
	sib.End()
	root.End()

	tree := tr.Summarize().Tree
	if tree == nil || tree.Name != "request" {
		t.Fatalf("root = %+v, want request", tree)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("root has %d children, want 2 (stage, merge)", len(tree.Children))
	}
	var stage *Node
	for _, c := range tree.Children {
		if c.Name == "stage" {
			stage = c
		}
	}
	if stage == nil {
		t.Fatalf("no stage child: %+v", tree.Children)
	}
	if len(stage.Children) != 1 || stage.Children[0].Name != "substage" {
		t.Fatalf("stage children = %+v, want [substage]", stage.Children)
	}
	if stage.Children[0].Attrs["shard"] != "2" {
		t.Fatalf("substage attrs = %v", stage.Children[0].Attrs)
	}
}

func TestEndIdempotent(t *testing.T) {
	_, tr, root := New(context.Background(), "r")
	root.End()
	root.End()
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	ctx, tr, root := New(context.Background(), "router")
	sctx, rpc := StartSpan(ctx, "rpc")
	hv := HeaderValue(sctx)
	traceID, parent, err := ParseHeader(hv)
	if err != nil {
		t.Fatalf("ParseHeader(%q): %v", hv, err)
	}
	if traceID != tr.id {
		t.Fatalf("trace id drifted over the header: %s vs %s", traceID, tr.id)
	}
	if parent != rpc.ID {
		t.Fatalf("parent drifted over the header: %s vs %s", parent, rpc.ID)
	}
	rpc.End()
	root.End()

	for _, bad := range []string{"", "nope", "xyz-abc", "0123-", "-0123", "g016x-0000000000000001"} {
		if _, _, err := ParseHeader(bad); err == nil {
			t.Fatalf("ParseHeader(%q) accepted garbage", bad)
		}
	}
}

func TestResumeStitchesOneTrace(t *testing.T) {
	// Router side: root + rpc span, header crosses the "wire".
	ctx, rtr, rroot := New(context.Background(), "request")
	rctx, rpc := StartSpan(ctx, "rpc.send")
	hv := HeaderValue(rctx)

	// Shard side: resume from the header, do work, export spans.
	sctx, str, sroot := Resume(context.Background(), hv, "shard.serve")
	if str.id != rtr.id {
		t.Fatalf("resumed trace id %s, want %s", str.id, rtr.id)
	}
	_, work := StartSpan(sctx, "match")
	work.End()
	sroot.End()
	var export []Span
	for _, s := range str.Spans() {
		export = append(export, *s)
	}

	// Router grafts the shard spans; the tree must be ONE stitched trace.
	rtr.Graft(export)
	rpc.End()
	rroot.End()

	tree := rtr.Summarize().Tree
	if tree.Name != "request" {
		t.Fatalf("root %q, want request", tree.Name)
	}
	var rpcNode *Node
	for _, c := range tree.Children {
		if c.Name == "rpc.send" {
			rpcNode = c
		}
	}
	if rpcNode == nil {
		t.Fatalf("no rpc.send under root: %+v", tree.Children)
	}
	if len(rpcNode.Children) != 1 || rpcNode.Children[0].Name != "shard.serve" {
		t.Fatalf("shard root not stitched under rpc.send: %+v", rpcNode.Children)
	}
	shard := rpcNode.Children[0]
	if !shard.Remote {
		t.Fatal("grafted shard span not marked remote")
	}
	if len(shard.Children) != 1 || shard.Children[0].Name != "match" {
		t.Fatalf("shard children = %+v, want [match]", shard.Children)
	}
}

func TestResumeBadHeaderFallsBack(t *testing.T) {
	_, tr, root := Resume(context.Background(), "garbage", "r")
	root.End()
	if tr.id == 0 {
		t.Fatal("fallback trace must have a fresh id")
	}
	if got := tr.Spans()[0].Parent; got != 0 {
		t.Fatalf("fallback root parent = %s, want 0", got)
	}
}

func TestAdopt(t *testing.T) {
	reqCtx, tr, root := New(context.Background(), "request")
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()

	adopted := Adopt(runCtx, reqCtx)
	_, sp := StartSpan(adopted, "pipeline.run")
	sp.End()
	root.End()
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("adopted span not recorded into the request trace: %d spans", got)
	}
	// Cancellation semantics come from base, not from the request ctx.
	if adopted.Done() == nil {
		t.Fatal("adopted ctx lost the base's cancellation")
	}
	if Adopt(runCtx, context.Background()) != runCtx {
		t.Fatal("Adopt with no trace must return base unchanged")
	}
}

func TestTraceSpanCap(t *testing.T) {
	ctx, tr, root := New(context.Background(), "r")
	for i := 0; i < maxSpans+100; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	root.End()
	if got := len(tr.Spans()); got != maxSpans {
		t.Fatalf("trace grew to %d spans, cap is %d", got, maxSpans)
	}
}

// TestRecorderEvictionBounds pins the ring-buffer contract: both rings
// stay at their configured capacity under sustained load, evicting
// oldest-first, and the slow ring only admits traces at/over threshold.
func TestRecorderEvictionBounds(t *testing.T) {
	rec := NewRecorder(8, 4, time.Nanosecond) // everything is "slow"
	for i := 0; i < 100; i++ {
		_, tr, root := New(context.Background(), fmt.Sprintf("req-%d", i))
		time.Sleep(time.Microsecond)
		root.End()
		rec.Observe(tr)
	}
	recent, slow := rec.Recent(), rec.Slow()
	if len(recent) != 8 {
		t.Fatalf("recent ring holds %d, want exactly 8", len(recent))
	}
	if len(slow) != 4 {
		t.Fatalf("slow ring holds %d, want exactly 4", len(slow))
	}
	// Oldest-first eviction: the survivors are the newest observations.
	if recent[len(recent)-1].Root != "req-99" || recent[0].Root != "req-92" {
		t.Fatalf("recent ring order wrong: first=%s last=%s", recent[0].Root, recent[len(recent)-1].Root)
	}
	if slow[len(slow)-1].Root != "req-99" || slow[0].Root != "req-96" {
		t.Fatalf("slow ring order wrong: first=%s last=%s", slow[0].Root, slow[len(slow)-1].Root)
	}
}

func TestRecorderSlowThreshold(t *testing.T) {
	rec := NewRecorder(8, 4, time.Hour) // nothing qualifies
	_, tr, root := New(context.Background(), "fast")
	root.End()
	rec.Observe(tr)
	if len(rec.Slow()) != 0 {
		t.Fatal("fast trace leaked into the slow ring")
	}
	if len(rec.Recent()) != 1 {
		t.Fatal("trace missing from the recent ring")
	}

	off := NewRecorder(8, 4, 0) // threshold 0 disables slow capture
	_, tr2, root2 := New(context.Background(), "r")
	time.Sleep(time.Microsecond)
	root2.End()
	off.Observe(tr2)
	if len(off.Slow()) != 0 {
		t.Fatal("slow capture must be off at threshold 0")
	}
}

func TestRecorderObserveNil(t *testing.T) {
	rec := NewRecorder(0, 0, 0)
	if sum := rec.Observe(nil); sum.TraceID != "" {
		t.Fatalf("nil trace produced summary %+v", sum)
	}
	if len(rec.Recent()) != 0 {
		t.Fatal("nil trace entered the ring")
	}
}

func TestConcurrentSpans(t *testing.T) {
	ctx, tr, root := New(context.Background(), "fanout")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, sp := StartSpan(ctx, fmt.Sprintf("shard-%d", i))
			_, inner := StartSpan(sctx, "work")
			inner.End()
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(tr.Spans()); got != 33 {
		t.Fatalf("recorded %d spans, want 33", got)
	}
	tree := tr.Summarize().Tree
	if len(tree.Children) != 16 {
		t.Fatalf("root has %d children, want 16", len(tree.Children))
	}
}

func TestIDStringParse(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := newID()
		got, err := ParseID(id.String())
		if err != nil || got != id {
			t.Fatalf("ParseID(String(%s)) = %s, %v", id, got, err)
		}
	}
	if a, b := newID(), newID(); a == b {
		t.Fatal("consecutive ids collided")
	}
}
