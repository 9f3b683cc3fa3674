package pipeline

import (
	"context"
	"errors"
	"testing"

	"bellflower/internal/schema"
)

func ctxTestRepo() *schema.Repository {
	repo := schema.NewRepository()
	for _, spec := range []string{
		"lib(address,book(authorName,data(title),shelf))",
		"store(book(title,author,isbn@),order(id,customer(name,email)))",
		"catalog(item(name,price),publisher(name,address))",
		"school(student(name,email),course(title,teacher(name)))",
	} {
		repo.MustAdd(schema.MustParseSpec(spec))
	}
	return repo
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	r := NewRunner(ctxTestRepo())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RunContext(ctx, schema.MustParseSpec("book(title,author)"), DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancellingMatcher cancels the run's context from inside element matching,
// so the stage boundary after stage 1 must abort the run — a deterministic
// probe of mid-run cancellation.
type cancellingMatcher struct {
	cancel context.CancelFunc
}

func (m cancellingMatcher) Name() string { return "cancelling" }

func (m cancellingMatcher) Similarity(p, r *schema.Node) float64 {
	m.cancel()
	return 1
}

func TestRunContextCancelledMidRun(t *testing.T) {
	r := NewRunner(ctxTestRepo())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := DefaultOptions()
	opts.Matcher = cancellingMatcher{cancel: cancel}
	rep, err := r.RunContext(ctx, schema.MustParseSpec("book(title,author)"), opts)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Error("got a report from a cancelled run")
	}
}

func TestRunMatchesRunContextBackground(t *testing.T) {
	r := NewRunner(ctxTestRepo())
	personal := schema.MustParseSpec("book(title,author)")
	opts := DefaultOptions()
	opts.Threshold = 0.5

	viaRun, err := r.Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := r.RunContext(context.Background(), personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRun.Mappings) != len(viaCtx.Mappings) {
		t.Fatalf("Run found %d mappings, RunContext %d", len(viaRun.Mappings), len(viaCtx.Mappings))
	}
	for i := range viaRun.Mappings {
		if viaRun.Mappings[i].Score.Delta != viaCtx.Mappings[i].Score.Delta {
			t.Fatalf("mapping %d scores differ", i)
		}
	}
}
