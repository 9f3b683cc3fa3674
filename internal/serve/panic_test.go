package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bellflower/internal/schema"
	"bellflower/internal/trace"
)

// panicMatcher is an element matcher whose every comparison panics.
type panicMatcher struct{}

func (panicMatcher) Name() string { return "panic" }

func (panicMatcher) Similarity(p, r *schema.Node) float64 { panic("similarity exploded") }

// TestPanickingRunFailsItsFlight: a run that panics — a Service worker's
// pipeline run, or a Router's pre-pass leader — answers its caller and every
// concurrent identical follower with an error instead of killing the process
// or leaving them waiting. The error is counted, the stack reaches the run's
// span, nothing stays held (worker, pre-pass slot, flight key), and the next
// good request is served.
func TestPanickingRunFailsItsFlight(t *testing.T) {
	for _, tc := range []struct {
		name, span string
		backend    func(*testing.T) Backend
	}{
		{"service", "pipeline.run", func(t *testing.T) Backend {
			return NewFromRepository(testRepo(t), Config{Workers: 1})
		}},
		{"router", "prepass", func(t *testing.T) Backend {
			return NewRouterFromRepository(testRepo(t), 2, Config{Workers: 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.backend(t)
			defer b.Close()
			bad := testOpts()
			bad.Matcher = panicMatcher{}

			const callers = 8
			errs := make([]error, callers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					<-start
					_, errs[i] = b.Match(ctx, personal(), bad)
				}(i)
			}
			close(start)
			wg.Wait()
			for i, err := range errs {
				var pe *panicError
				if !errors.As(err, &pe) || !strings.Contains(err.Error(), "panicked: similarity exploded") {
					t.Errorf("caller %d: err = %v, want the recovered panic", i, err)
				}
			}
			if got := b.Stats().Errors; got != callers {
				t.Errorf("Errors = %d, want %d", got, callers)
			}

			ctx, tr, root := trace.New(context.Background(), "test")
			if _, err := b.Match(ctx, personal(), bad); err == nil {
				t.Fatal("a panicking run was served")
			}
			root.End()
			if !spanHasStack(tr, tc.span) {
				t.Errorf("no %s span carries the panic's stack", tc.span)
			}

			if r, ok := b.(*Router); ok && len(r.prepassSem) != 0 {
				t.Errorf("%d pre-pass slots still held after the panics", len(r.prepassSem))
			}
			if _, err := b.Match(context.Background(), personal(), testOpts()); err != nil {
				t.Fatalf("good request after the panics: %v", err)
			}
		})
	}
}

// panicLocalMatcher is panicMatcher declared property-local, so the keyed
// matching kernel scores it, on parallel workers when a request misses
// enough (personal node, key) pairs.
type panicLocalMatcher struct{ panicMatcher }

func (panicLocalMatcher) PropertyLocal() bool { return true }

// TestPanicOnMatchingWorkerFailsTheRun: a panic on one of the matching
// kernel's own worker goroutines reaches the run's recovery like any other —
// the request gets the error and the process survives to serve the next one.
func TestPanicOnMatchingWorkerFailsTheRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b := schema.NewBuilder("wide")
	root := b.Root("wide")
	for i := 0; i < 1024; i++ {
		b.Element(root, fmt.Sprintf("field%d", i))
	}
	repo := schema.NewRepository()
	repo.MustAdd(b.MustTree())
	s := NewFromRepository(repo, Config{Workers: 1})
	defer s.Close()
	// 5 personal nodes × 1,025 keys, all missed: past the kernel's 4,096-pair
	// threshold for scoring on GOMAXPROCS workers.
	wide := schema.MustParseSpec("book(title,author,isbn,price)")
	bad := testOpts()
	bad.Matcher = panicLocalMatcher{}
	_, err := s.Match(context.Background(), wide, bad)
	var pe *panicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "panicked: similarity exploded") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
	if _, err := s.Match(context.Background(), wide, testOpts()); err != nil {
		t.Fatalf("good request after the panic: %v", err)
	}
}

func spanHasStack(tr *trace.Trace, name string) bool {
	for _, sp := range tr.Spans() {
		if sp.Name != name {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "stack" && strings.Contains(a.Value, "panicMatcher") {
				return true
			}
		}
	}
	return false
}
