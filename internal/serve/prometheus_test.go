package serve

import (
	"bufio"
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Match(context.Background(), personal(), testOpts()); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	if err := WritePrometheus(&b, s.Stats(), 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, name := range []string{
		"bellflower_requests_total 3",
		"bellflower_cache_hits_total 2",
		"bellflower_pipeline_runs_total 1",
		"bellflower_shards 1",
		"bellflower_request_latency_seconds_count 3",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("output missing %q:\n%s", name, out)
		}
	}

	// Histogram buckets must be cumulative and end at the total count, and
	// every sample line needs HELP/TYPE metadata.
	var last int64 = -1
	sc := bufio.NewScanner(strings.NewReader(out))
	buckets := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "bellflower_request_latency_seconds_bucket") {
			continue
		}
		buckets++
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = v
	}
	if buckets != numLatencyBuckets {
		t.Errorf("%d bucket lines, want %d (including +Inf)", buckets, numLatencyBuckets)
	}
	if last != 3 {
		t.Errorf("+Inf bucket = %d, want 3", last)
	}
	if strings.Count(out, "# TYPE") == 0 || strings.Count(out, "# HELP") != strings.Count(out, "# TYPE") {
		t.Error("HELP/TYPE metadata out of balance")
	}
}

func TestMergeStats(t *testing.T) {
	a := Stats{
		Requests: 5, CacheHits: 2, PipelineRuns: 3, Workers: 4, QueueCapacity: 16,
		Latency: LatencyStats{
			Count: 2, SumMS: 10,
			BucketsMS: []float64{1, 5},
			Counts:    []int64{1, 1, 0},
		},
	}
	b := Stats{
		Requests: 7, CacheHits: 1, PipelineRuns: 6, Workers: 4, QueueCapacity: 16,
		Latency: LatencyStats{
			Count: 3, SumMS: 20,
			BucketsMS: []float64{1, 5},
			Counts:    []int64{0, 2, 1},
		},
	}
	got := MergeStats(a, b)
	if got.Requests != 12 || got.CacheHits != 3 || got.PipelineRuns != 9 {
		t.Errorf("counters = %+v", got)
	}
	if got.Workers != 8 || got.QueueCapacity != 32 {
		t.Errorf("capacities = %+v", got)
	}
	if got.Latency.Count != 5 || got.Latency.SumMS != 30 || got.Latency.MeanMS != 6 {
		t.Errorf("latency rollup = %+v", got.Latency)
	}
	if want := []int64{1, 3, 1}; len(got.Latency.Counts) != 3 ||
		got.Latency.Counts[0] != want[0] || got.Latency.Counts[1] != want[1] || got.Latency.Counts[2] != want[2] {
		t.Errorf("bucket counts = %v, want %v", got.Latency.Counts, want)
	}
	// Merging nothing yields a zero snapshot, not a panic.
	if z := MergeStats(); z.Requests != 0 || z.Latency.Count != 0 {
		t.Errorf("empty merge = %+v", z)
	}
}

// TestMergeStatsAcrossBucketLayouts: a snapshot from a build with the
// older 1 ms–5 s layout folds into the current one by upper bound, never by
// index, and keeps every observation.
func TestMergeStatsAcrossBucketLayouts(t *testing.T) {
	var h histogram
	h.observe(300 * time.Microsecond)
	old := LatencyStats{
		Count: 4, SumMS: 3040,
		BucketsMS: []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000},
		Counts:    []int64{0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2}, // 10, 25 and twice +Inf
	}
	got := MergeStats(Stats{Latency: h.snapshot()}, Stats{Latency: old}).Latency
	want := make([]int64, numLatencyBuckets)
	want[5] = 1                   // the local 0.3 ms observation (≤ 0.5 ms)
	want[9] = 1                   // old ≤ 10 ms
	want[11] = 1                  // old ≤ 25 ms, under 50 ms
	want[numLatencyBuckets-1] = 2 // +Inf stays +Inf
	if !slices.Equal(got.BucketsMS, latencyBucketsMS) || !slices.Equal(got.Counts, want) {
		t.Errorf("merged buckets %v counts %v, want counts %v", got.BucketsMS, got.Counts, want)
	}
	if got.Count != 5 || got.P50MS <= 5 {
		t.Errorf("merged count %d p50 %.3f ms, want 5 and above 5 ms", got.Count, got.P50MS)
	}
}

// TestWritePrometheusCandidatePrePass: a sharded router's rollup exports
// the pre-pass counter in the scrape payload.
func TestWritePrometheusCandidatePrePass(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 2, Config{})
	defer r.Close()
	for i := 0; i < 2; i++ {
		opts := testOpts()
		opts.TopN = 50 + i // cold, one candidate signature
		if _, err := r.Match(context.Background(), personal(), opts); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := WritePrometheus(&b, r.Stats(), r.NumShards()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "bellflower_candidate_prepass_total 1") {
		t.Errorf("scrape missing bellflower_candidate_prepass_total 1:\n%s", b.String())
	}
}

// TestWritePrometheusShardLabels: WritePrometheusSnapshot adds per-shard
// labelled series next to the unlabelled rollup, and the labelled
// families sum to the rollup for pure per-shard counters.
func TestWritePrometheusShardLabels(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 3, Config{})
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, err := r.Match(context.Background(), personal(), testOpts()); err != nil {
			t.Fatal(err)
		}
	}
	total, shards := r.Snapshot()
	var b strings.Builder
	if err := WritePrometheusSnapshot(&b, total, shards); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// The rollup names are unchanged...
	if !strings.Contains(out, "bellflower_requests_total ") {
		t.Error("rollup series missing from labelled scrape")
	}
	// ...and every shard appears in the labelled families.
	sum := int64(0)
	for i, st := range shards {
		line := "bellflower_shard_requests_total{shard=\"" + strconv.Itoa(i) + "\"} " + strconv.FormatInt(st.Requests, 10)
		if !strings.Contains(out, line) {
			t.Errorf("scrape missing %q:\n%s", line, out)
		}
		sum += st.Requests
	}
	if sum != total.Requests {
		t.Errorf("labelled shard requests sum to %d, rollup says %d", sum, total.Requests)
	}
	for _, name := range []string{
		"bellflower_shard_cache_hits_total{shard=\"0\"}",
		"bellflower_shard_pipeline_runs_total{shard=\"2\"}",
		"bellflower_shard_cache_bytes{shard=\"1\"}",
		"bellflower_index_bytes ",
		"bellflower_cache_bytes ",
		"bellflower_partial_results_total 0",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("scrape missing %q", name)
		}
	}
	if strings.Count(out, "# HELP") != strings.Count(out, "# TYPE") {
		t.Error("HELP/TYPE metadata out of balance in labelled scrape")
	}

	// A single-shard backend emits no labelled families.
	s := NewFromRepository(testRepo(t), Config{})
	defer s.Close()
	st, ss := s.Snapshot()
	var single strings.Builder
	if err := WritePrometheusSnapshot(&single, st, ss); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(single.String(), "{shard=") {
		t.Error("single-shard scrape contains shard labels")
	}
}

// TestWritePrometheusStageFamilies: after traffic, the scrape carries a
// bellflower_stage_duration_ms histogram family with one labelled series
// set per stage, cumulative within each stage, and matching _sum/_count
// lines. A fresh snapshot with no stages emits no stage family at all.
func TestWritePrometheusStageFamilies(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 2, Config{})
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, err := r.Match(context.Background(), personal(), testOpts()); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := WritePrometheus(&b, r.Stats(), r.NumShards()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	const fam = "bellflower_stage_duration_ms"
	for _, stage := range []string{StageGenerate, StagePrePass, StageFanout, StageMerge} {
		if !strings.Contains(out, fam+`_count{stage="`+stage+`"}`) {
			t.Errorf("scrape missing stage %q count:\n%s", stage, out)
		}
		if !strings.Contains(out, fam+`_bucket{stage="`+stage+`",le="+Inf"}`) {
			t.Errorf("scrape missing stage %q +Inf bucket", stage)
		}
		// Per-stage buckets are cumulative and end at that stage's count.
		var last, count int64 = -1, -1
		sc := bufio.NewScanner(strings.NewReader(out))
		buckets := 0
		for sc.Scan() {
			line := sc.Text()
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if strings.HasPrefix(line, fam+`_bucket{stage="`+stage+`",`) {
				if err != nil {
					t.Fatalf("bucket line %q: %v", line, err)
				}
				if v < last {
					t.Errorf("stage %q buckets not cumulative: %q after %d", stage, line, last)
				}
				last = v
				buckets++
			} else if strings.HasPrefix(line, fam+`_count{stage="`+stage+`"}`) {
				if err != nil {
					t.Fatalf("count line %q: %v", line, err)
				}
				count = v
			}
		}
		if buckets != numLatencyBuckets {
			t.Errorf("stage %q: %d bucket lines, want %d", stage, buckets, numLatencyBuckets)
		}
		if count < 1 || last != count {
			t.Errorf("stage %q: +Inf bucket %d, _count %d; want equal and >= 1", stage, last, count)
		}
	}
	// One HELP/TYPE pair covers the whole labelled family.
	if n := strings.Count(out, "# TYPE "+fam+" histogram"); n != 1 {
		t.Errorf("%d TYPE lines for %s, want 1", n, fam)
	}
	if strings.Count(out, "# HELP") != strings.Count(out, "# TYPE") {
		t.Error("HELP/TYPE metadata out of balance")
	}

	// No traffic -> no stage family.
	var empty strings.Builder
	if err := WritePrometheus(&empty, Stats{}, 1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), fam) {
		t.Error("empty snapshot emitted a stage family")
	}
}

// TestLatencyQuantiles: quantile interpolation on a hand-built histogram,
// overflow clamping, and the snapshot/merge paths filling P50/P95/P99.
func TestLatencyQuantiles(t *testing.T) {
	// All 10 observations fell in the (1, 2] bucket: quantiles interpolate
	// linearly across that bucket.
	ls := LatencyStats{
		Count:     10,
		BucketsMS: []float64{1, 2, 5},
		Counts:    []int64{0, 10, 0, 0},
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 1.5}, {0.95, 1.95}, {0.99, 1.99}, {1.0, 2.0},
	} {
		if got := ls.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}

	// Observations in the +Inf overflow clamp to the last finite bound.
	over := LatencyStats{Count: 4, BucketsMS: []float64{1, 2, 5}, Counts: []int64{0, 0, 0, 4}}
	if got := over.Quantile(0.99); got != 5 {
		t.Errorf("overflow Quantile(0.99) = %g, want clamp to 5", got)
	}

	// Empty histograms yield zero, not NaN or a panic.
	if got := (LatencyStats{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}

	// The live snapshot path fills the exported fields.
	var h histogram
	for i := 0; i < 100; i++ {
		h.observe(3 * time.Millisecond) // (2, 5] bucket
	}
	snap := h.snapshot()
	if snap.P50MS <= 2 || snap.P50MS > 5 || snap.P95MS <= 2 || snap.P95MS > 5 {
		t.Errorf("snapshot quantiles outside the observed bucket: p50=%g p95=%g", snap.P50MS, snap.P95MS)
	}
	if snap.P99MS < snap.P50MS {
		t.Errorf("p99 %g < p50 %g", snap.P99MS, snap.P50MS)
	}

	// MergeStats recomputes quantiles from the summed buckets.
	a := Stats{Latency: LatencyStats{Count: 1, SumMS: 1, BucketsMS: []float64{1, 2}, Counts: []int64{1, 0, 0}}}
	b := Stats{Latency: LatencyStats{Count: 99, SumMS: 198, BucketsMS: []float64{1, 2}, Counts: []int64{0, 99, 0}}}
	m := MergeStats(a, b)
	if m.Latency.P50MS <= 1 || m.Latency.P50MS > 2 {
		t.Errorf("merged p50 = %g, want in (1, 2]", m.Latency.P50MS)
	}
	if m.Latency.P50MS != m.Latency.Quantile(0.5) {
		t.Errorf("merged P50MS %g != recomputed %g", m.Latency.P50MS, m.Latency.Quantile(0.5))
	}
}

// TestHistogramResolvesSubMillisecond: a 0.3 ms observation — about what a
// clustering run costs — lands in a bucket below 1 ms, and the quantiles
// interpolated from it stay below 1 ms too, in the request and the stage
// histograms alike (they share one layout).
func TestHistogramResolvesSubMillisecond(t *testing.T) {
	var c counters
	c.observe(300 * time.Microsecond)
	c.observeStages(0, 300*time.Microsecond, 0)
	for name, ls := range map[string]LatencyStats{"request": c.lat.snapshot(), "cluster stage": c.stCluster.snapshot()} {
		i := 0
		for ls.Counts[i] == 0 {
			i++
		}
		if i >= len(ls.BucketsMS) || ls.BucketsMS[i] >= 1 || (i > 0 && ls.BucketsMS[i-1] >= 0.3) {
			t.Errorf("%s: 0.3 ms counted in bucket %d of %v", name, i, ls.BucketsMS)
		}
		if ls.P50MS >= 1 || ls.P99MS >= 1 {
			t.Errorf("%s: p50 %.3f ms, p99 %.3f ms from one 0.3 ms observation", name, ls.P50MS, ls.P99MS)
		}
	}
}
