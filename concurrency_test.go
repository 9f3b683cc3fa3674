package bellflower_test

// Concurrency tests: the serve subsystem depends on one Matcher (one
// pipeline.Runner and its shared labelling index) being safe under
// concurrent Match calls. Run with -race.

import (
	"context"
	"sync"
	"testing"
	"time"

	"bellflower"
)

func concurrencyRepo(t testing.TB) *bellflower.Repository {
	t.Helper()
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes = 800
	cfg.Seed = 42
	repo, err := bellflower.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// TestMatcherConcurrentUse hammers one Matcher from many goroutines with a
// mix of personal schemas and options, and checks that every goroutine
// gets exactly the result a fresh sequential run produces — both a data
// race probe (under -race) and a determinism check.
func TestMatcherConcurrentUse(t *testing.T) {
	repo := concurrencyRepo(t)
	m := bellflower.NewMatcher(repo)

	personals := []string{
		"book(title,author)",
		"customer(name,email,address)",
		"order(id,item(name,price))",
	}
	variants := []bellflower.Variant{bellflower.VariantMedium, bellflower.VariantTree}

	type job struct {
		spec    string
		variant bellflower.Variant
	}
	var jobs []job
	for _, p := range personals {
		for _, v := range variants {
			jobs = append(jobs, job{p, v})
		}
	}
	makeOpts := func(v bellflower.Variant) bellflower.Options {
		opts := bellflower.DefaultOptions()
		opts.Threshold = 0.5
		opts.Variant = v
		return opts
	}

	// Sequential reference results.
	want := make(map[job][]float64)
	for _, j := range jobs {
		rep, err := m.Match(bellflower.MustParseSchema(j.spec), makeOpts(j.variant))
		if err != nil {
			t.Fatal(err)
		}
		want[j] = rep.Deltas()
	}

	const goroutines = 8
	const iters = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j := jobs[(g*iters+i)%len(jobs)]
				rep, err := m.Match(bellflower.MustParseSchema(j.spec), makeOpts(j.variant))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got := rep.Deltas()
				ref := want[j]
				if len(got) != len(ref) {
					t.Errorf("goroutine %d job %+v: %d mappings, want %d", g, j, len(got), len(ref))
					return
				}
				for k := range got {
					if got[k] != ref[k] {
						t.Errorf("goroutine %d job %+v: mapping %d Δ=%v, want %v", g, j, k, got[k], ref[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMatchContextDeadline exercises the facade's context plumbing: an
// expired context aborts the run.
func TestMatchContextDeadline(t *testing.T) {
	m := bellflower.NewMatcher(concurrencyRepo(t))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := m.MatchContext(ctx, bellflower.MustParseSchema("book(title,author)"), bellflower.DefaultOptions())
	if err == nil {
		t.Fatal("expired context produced a report")
	}
}

// TestServiceFacade exercises the re-exported service API end to end:
// NewService, sequential and concurrent Match, Stats, Close.
func TestServiceFacade(t *testing.T) {
	svc := bellflower.NewService(concurrencyRepo(t), bellflower.ServiceConfig{Workers: 2})
	defer svc.Close()

	opts := bellflower.DefaultOptions()
	opts.Threshold = 0.5
	personal := bellflower.MustParseSchema("book(title,author)")

	if _, err := svc.Match(context.Background(), personal, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Match(context.Background(), personal, opts); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, p := range []*bellflower.Tree{personal, bellflower.MustParseSchema("customer(name,email)")} {
		wg.Add(1)
		go func(i int, p *bellflower.Tree) {
			defer wg.Done()
			if _, err := svc.Match(context.Background(), p, opts); err != nil {
				t.Errorf("concurrent request %d: %v", i, err)
			}
		}(i, p)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Requests != 4 {
		t.Errorf("requests = %d, want 4", st.Requests)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits after a repeated identical request")
	}

	m := bellflower.NewMatcher(concurrencyRepo(t))
	shared := m.Serve(bellflower.ServiceConfig{Workers: 1})
	if _, err := shared.Match(context.Background(), personal, opts); err != nil {
		t.Errorf("Matcher.Serve service: %v", err)
	}
	shared.Close()
}
