package serve

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

// The deprecated adaptive_top_n option is ignored by the pipeline, so it
// must not split the cache or a flight: the same request with and without
// it is ONE pipeline run per backend, the second served from the report
// cache — for a router, its own.
func TestIgnoredAdaptiveOptionSharesOneRun(t *testing.T) {
	plain := testOpts()
	plain.TopN = 10
	flagged := plain
	//lint:ignore SA1019 pins that the deprecated field is ignored
	flagged.AdaptiveTopN = true
	if Signature(personal(), plain) != Signature(personal(), flagged) {
		t.Fatal("AdaptiveTopN is part of the request signature")
	}

	s := NewFromRepository(testRepo(t), Config{})
	defer s.Close()
	r1, err := s.Match(context.Background(), personal(), plain)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Match(context.Background(), personal(), flagged)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("Service: the flagged request did not share the cached report")
	}
	if st := s.Stats(); st.PipelineRuns != 1 || st.CacheHits != 1 {
		t.Errorf("Service: %d pipeline runs, %d cache hits; want 1, 1", st.PipelineRuns, st.CacheHits)
	}

	router := NewRouterFromRepository(syntheticRepo(t, 400, 5), 2, Config{Workers: 2})
	defer router.Close()
	p := schema.MustParseSpec("address(name,email)")
	if _, err := router.Match(context.Background(), p, plain); err != nil {
		t.Fatal(err)
	}
	before := router.Stats()
	if _, err := router.Match(context.Background(), p, flagged); err != nil {
		t.Fatal(err)
	}
	after := router.Stats()
	if after.PipelineRuns != before.PipelineRuns {
		t.Errorf("Router: the flagged request cost %d more pipeline runs", after.PipelineRuns-before.PipelineRuns)
	}
	if after.CandidatePrePass != before.CandidatePrePass {
		t.Errorf("Router: the flagged request cost %d more pre-pass runs", after.CandidatePrePass-before.CandidatePrePass)
	}
	if after.CacheHits != before.CacheHits+1 || after.Requests != before.Requests+1 {
		t.Errorf("Router: the flagged request moved hits %d → %d, requests %d → %d; want one hit at the router",
			before.CacheHits, after.CacheHits, before.Requests, after.Requests)
	}
}

// Top-N reports own exactly the memory the governor charges them for: a
// cached report pins neither a longer list's backing array nor the search's
// emission slabs. Checked on the structures (exact capacity, one compact
// image array, estimate within the calibration band of the sweep) and on
// the heap itself: thousands of cached reports, each with its rendering
// attached, grow the live heap by what the governor accounts for, within the
// same band.
func TestCachedTopNReportsPinWhatTheyAreCharged(t *testing.T) {
	const reports = 3000
	repo := syntheticRepo(t, 600, 600)
	s := NewFromRepository(repo, Config{Workers: 1, CacheSize: reports})
	defer s.Close()
	p := schema.MustParseSpec("address(name,email)")
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.3
	opts.TopN = 10

	distinct := func(i int) pipeline.Options {
		o := opts
		o.Threshold = 0.5 + float64(i)*1e-9 // a distinct signature, the same answer
		return o
	}
	first, err := s.Match(context.Background(), p, distinct(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Mappings) != opts.TopN {
		t.Fatalf("fixture returns %d mappings, want a full top-%d", len(first.Mappings), opts.TopN)
	}
	if cap(first.Mappings) != len(first.Mappings) {
		t.Errorf("cached report holds %d mappings in a backing array of %d", len(first.Mappings), cap(first.Mappings))
	}
	base := uintptr(unsafe.Pointer(&first.Mappings[0].Images[0]))
	for i := range first.Mappings {
		if at := uintptr(unsafe.Pointer(&first.Mappings[i].Images[0])); at != base+uintptr(i*p.Len())*uintptr(ptrSize) {
			t.Fatalf("mapping %d's images are not carved from the report's one compact array", i)
		}
	}
	checkBand(t, "reportBytes(cached top-N)", reportBytes(first), measuredReportBytes(first))
	if got := s.Stats().CacheBytes; got != reportBytes(first) {
		t.Errorf("governor charged %d bytes for the cached report, its estimate is %d", got, reportBytes(first))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	chargedBefore := s.Stats().CacheBytes
	var rendered int64
	for i := 1; i < reports; i++ {
		body, err := s.MatchJSON(context.Background(), p, distinct(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		rendered += int64(len(body))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	charged := s.Stats().CacheBytes - chargedBefore
	if want := (reports-1)*reportBytes(first) + rendered; charged != want {
		t.Errorf("governor charged %d bytes for %d reports with renderings, want Σ(reportBytes + len(body)) = %d", charged, reports-1, want)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if st := s.Stats(); st.CacheEvictions != 0 {
		t.Fatalf("%d evictions: the cache must hold every report for the heap comparison", st.CacheEvictions)
	}
	checkBand(t, "governor charge vs live-heap growth of the cached reports", charged, grown)
}
