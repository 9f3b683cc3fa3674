package serve

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"bellflower/internal/pipeline"
)

// sameBytes reports whether a and b are the same slice, not merely equal.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// The rendering lives in the report's own cache entry: the first MatchJSON
// renders and attaches, every later one returns those very bytes without a
// pipeline run, and the governor charges the entry reportBytes + len(body).
func TestMatchJSONServesTheResidentRendering(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	first, err := s.MatchJSON(ctx, personal(), testOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.MatchJSON(ctx, personal(), testOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBytes(first, second) {
		t.Error("the second MatchJSON did not return the resident rendering")
	}
	rep, err := s.Match(ctx, personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := AppendReportJSON(nil, personal(), rep); !bytes.Equal(first, want) {
		t.Errorf("resident rendering differs from the report's:\n got: %s\nwant: %s", first, want)
	}
	st := s.Stats()
	if st.Requests != 3 || st.CacheHits != 2 || st.CacheMisses != 1 || st.PipelineRuns != 1 || st.Latency.Count != 3 {
		t.Errorf("requests=%d hits=%d misses=%d runs=%d observed=%d; want 3, 2, 1, 1, 3",
			st.Requests, st.CacheHits, st.CacheMisses, st.PipelineRuns, st.Latency.Count)
	}
	if want := reportBytes(rep) + int64(len(first)); st.CacheBytes != want {
		t.Errorf("CacheBytes = %d, want reportBytes + len(body) = %d", st.CacheBytes, want)
	}
	if used := auditGovernor(t, s.gov); used != st.CacheBytes {
		t.Errorf("governor holds %d bytes, the report cache accounts %d", used, st.CacheBytes)
	}
}

// An entry Match put there gets its rendering on the first MatchJSON — a
// cache hit — and is charged for it exactly once.
func TestMatchJSONAttachesToAnEntryMatchCached(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	rep, err := s.Match(ctx, personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CacheBytes; got != reportBytes(rep) {
		t.Fatalf("CacheBytes = %d before any rendering, want %d", got, reportBytes(rep))
	}
	var body []byte
	for i := 0; i < 3; i++ {
		if body, err = s.MatchJSON(ctx, personal(), testOpts(), nil); err != nil {
			t.Fatal(err)
		}
		if got, want := s.Stats().CacheBytes, reportBytes(rep)+int64(len(body)); got != want {
			t.Fatalf("after MatchJSON %d: CacheBytes = %d, want %d", i+1, got, want)
		}
	}
	if st := s.Stats(); st.PipelineRuns != 1 || st.CacheHits != 3 {
		t.Errorf("runs=%d hits=%d, want 1 and 3", st.PipelineRuns, st.CacheHits)
	}
	auditGovernor(t, s.gov)
}

// Whatever removes or replaces the entry — the count cap, the byte budget,
// a newer report under the same key — releases the rendering with the
// report: nothing stays charged for it.
func TestRenderingLeavesWithItsReport(t *testing.T) {
	ctx := context.Background()
	other := testOpts()
	other.TopN = 7

	t.Run("count cap", func(t *testing.T) {
		s := NewFromRepository(testRepo(t), Config{Workers: 1, CacheSize: 1})
		defer s.Close()
		if _, err := s.MatchJSON(ctx, personal(), testOpts(), nil); err != nil {
			t.Fatal(err)
		}
		body, err := s.MatchJSON(ctx, personal(), other, nil) // evicts the first entry
		if err != nil {
			t.Fatal(err)
		}
		rep, _, ok := s.cache.Get(Signature(personal(), other))
		if !ok {
			t.Fatal("the newer entry is not resident")
		}
		st := s.Stats()
		if want := reportBytes(rep) + int64(len(body)); st.CacheBytes != want || st.CacheLen != 1 || st.CacheEvictions != 1 {
			t.Errorf("CacheBytes=%d (want %d) CacheLen=%d evictions=%d", st.CacheBytes, want, st.CacheLen, st.CacheEvictions)
		}
		auditGovernor(t, s.gov)
	})

	t.Run("byte budget", func(t *testing.T) {
		// The report alone fits; report + rendering does not, so attaching
		// evicts the entry. The request is still answered.
		probe := NewFromRepository(testRepo(t), Config{Workers: 1})
		rep, err := probe.Match(ctx, personal(), testOpts())
		probe.Close()
		if err != nil {
			t.Fatal(err)
		}
		s := NewFromRepository(testRepo(t), Config{Workers: 1, CacheBytes: reportBytes(rep) + 64})
		defer s.Close()
		body, err := s.MatchJSON(ctx, personal(), testOpts(), nil)
		if err != nil || len(body) == 0 {
			t.Fatalf("MatchJSON: %d bytes, %v", len(body), err)
		}
		if st := s.Stats(); st.CacheBytes != 0 || st.CacheLen != 0 || st.CacheEvictions != 1 {
			t.Errorf("CacheBytes=%d CacheLen=%d evictions=%d, want 0, 0, 1", st.CacheBytes, st.CacheLen, st.CacheEvictions)
		}
		auditGovernor(t, s.gov)
	})

	t.Run("replacement", func(t *testing.T) {
		// An entry is replaced only once evicted: its rendering leaves with
		// it, and the key's newer report starts bare.
		g := newGovernor(0)
		c := newReportCache(g, 1)
		rep := &pipeline.Report{}
		c.Add("k", rep)
		c.Attach("k", rep, []byte("rendered"))
		if want := reportBytes(rep) + int64(len("rendered")); c.Bytes() != want {
			t.Fatalf("Bytes = %d, want %d", c.Bytes(), want)
		}
		c.Add("other", &pipeline.Report{}) // cap 1: evicts k
		newer := &pipeline.Report{Clusters: 1}
		c.Add("k", newer)
		if got, body, ok := c.Get("k"); !ok || got != newer || body != nil || c.Bytes() != reportBytes(newer) {
			t.Errorf("after replacement: resident=%v newer=%v body=%q Bytes=%d", ok, got == newer, body, c.Bytes())
		}
		auditGovernor(t, g)
	})
}

// Concurrent first renderings of one entry: one wins, everybody serves the
// winner's bytes, and the entry is charged for one body.
func TestConcurrentFirstRenderingsChargeOnce(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	rep, err := s.Match(ctx, personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			b, err := s.MatchJSON(ctx, personal(), testOpts(), nil)
			if err != nil {
				t.Error(err)
			}
			bodies[i] = b
		}(i)
	}
	close(start)
	wg.Wait()
	for i, b := range bodies {
		if !sameBytes(b, bodies[0]) {
			t.Errorf("caller %d served a rendering of its own", i)
		}
	}
	if got, want := s.Stats().CacheBytes, reportBytes(rep)+int64(len(bodies[0])); got != want {
		t.Errorf("CacheBytes = %d after %d concurrent first renderings, want one body's charge %d", got, callers, want)
	}
	auditGovernor(t, s.gov)
}

// Add keeps the first report cached under a key: a later one is not stored,
// and its caller gets the resident report and rendering instead.
func TestReportCacheAddKeepsResident(t *testing.T) {
	g := newGovernor(0)
	c := newReportCache(g, 4)
	first, second := &pipeline.Report{}, &pipeline.Report{Clusters: 1}
	if rep, body := c.Add("k", first); rep != first || body != nil {
		t.Fatalf("Add on an empty key returned %p %q, want its own report", rep, body)
	}
	attached := c.Attach("k", first, []byte("first rendering"))
	if rep, body := c.Add("k", second); rep != first || !sameBytes(body, attached) {
		t.Errorf("Add over a resident entry returned %p %q, want the resident report and rendering", rep, body)
	}
	if rep, _, _ := c.Get("k"); rep != first || c.Len() != 1 {
		t.Errorf("the resident entry was replaced (rep=%p len=%d)", rep, c.Len())
	}
	if rep, _ := newReportCache(g, -1).Add("k", second); rep != second {
		t.Error("a disabled cache did not hand the caller's report back")
	}
	auditGovernor(t, g)
}

// A rendering never brings an entry back: if the report was evicted, or the
// key re-filled by a newer run, between reading it and attaching, the body
// is served to its caller and the cache stays as it is.
func TestAttachDoesNotResurrectOrOverwrite(t *testing.T) {
	g := newGovernor(0)
	c := newReportCache(g, 1)
	old, body := &pipeline.Report{}, []byte("old rendering")
	c.Add("k", old)
	c.Add("other", &pipeline.Report{}) // cap 1: evicts k
	if got := c.Attach("k", old, body); !sameBytes(got, body) {
		t.Error("Attach to an evicted entry did not hand the caller's body back")
	}
	if _, _, ok := c.Get("k"); ok || c.Len() != 1 {
		t.Errorf("evicted entry resurrected: resident=%v len=%d", ok, c.Len())
	}

	newer := &pipeline.Report{Clusters: 1}
	c.Add("k", newer) // the key now holds a newer run's report (evicts other)
	if got := c.Attach("k", old, body); !sameBytes(got, body) {
		t.Error("Attach against a replaced entry did not hand the caller's body back")
	}
	if rep, resident, ok := c.Get("k"); !ok || rep != newer || resident != nil {
		t.Errorf("a stale rendering was attached to the newer report (rep=%p body=%q)", rep, resident)
	}
	if c.Bytes() != reportBytes(newer) {
		t.Errorf("Bytes = %d, want the bare report's %d", c.Bytes(), reportBytes(newer))
	}
	auditGovernor(t, g)
}

// The router keeps its merged report's rendering in the report's own cache
// entry, as a Service does: MatchJSON on a report Match cached renders once
// and charges the body to the governor, and the next repeat returns those
// same bytes. Neither repeat reaches a shard.
func TestRouterMatchJSONCachesRendering(t *testing.T) {
	router := NewRouterFromRepository(syntheticRepo(t, 400, 5), 2, Config{Workers: 2})
	defer router.Close()
	ctx := context.Background()
	p, opts := personal(), testOpts()
	rep, err := router.Match(ctx, p, opts) // cold: the merged report is cached
	if err != nil {
		t.Fatal(err)
	}
	before, shardsBefore := router.Snapshot()
	body, err := router.MatchJSON(ctx, p, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := AppendReportJSON(nil, p, rep); !bytes.Equal(body, want) {
		t.Errorf("router rendering differs from its report's:\n got: %s\nwant: %s", body, want)
	}
	mid := router.Stats()
	if want := before.CacheBytes + int64(len(body)); mid.CacheBytes != want {
		t.Errorf("CacheBytes = %d after the first rendering, want %d + the body's %d", mid.CacheBytes, before.CacheBytes, len(body))
	}
	again, err := router.MatchJSON(ctx, p, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBytes(again, body) {
		t.Error("a repeat rendered again instead of serving the attached rendering")
	}
	after, shardsAfter := router.Snapshot()
	if after.CacheBytes != mid.CacheBytes || after.PipelineRuns != before.PipelineRuns {
		t.Errorf("the repeat moved CacheBytes %d → %d, pipeline runs %d → %d",
			mid.CacheBytes, after.CacheBytes, before.PipelineRuns, after.PipelineRuns)
	}
	if after.CacheHits != before.CacheHits+2 || after.Requests != before.Requests+2 {
		t.Errorf("two router hits moved hits %d → %d, requests %d → %d; want +2 each",
			before.CacheHits, after.CacheHits, before.Requests, after.Requests)
	}
	for i := range shardsAfter {
		if shardsAfter[i].Requests != shardsBefore[i].Requests {
			t.Errorf("shard %d was asked a repeat", i)
		}
	}
	auditGovernor(t, router.gov)
}
