package serve

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// populatedStats returns a Stats whose every scalar field holds a distinct
// non-zero value derived from seed, with both histograms, two stages, the
// wire bytes and the given replicas filled in — the input of the golden
// /metrics text and of the merge property tests.
func populatedStats(seed int, replicas ...ReplicaHealth) Stats {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(seed*1000 + i + 1))
		case reflect.Float64:
			f.SetFloat(float64(seed) + float64(i+1)/128)
		}
	}
	hist := func(n int64) LatencyStats {
		ls := LatencyStats{
			Count:     6 * n,
			SumMS:     float64(n) * 123.5,
			BucketsMS: append([]float64(nil), latencyBucketsMS...),
			Counts:    make([]int64, numLatencyBuckets),
		}
		ls.Counts[0], ls.Counts[3], ls.Counts[numLatencyBuckets-1] = 3*n, 2*n, n
		ls.MeanMS = ls.SumMS / float64(ls.Count)
		ls.fillQuantiles()
		return ls
	}
	st.Latency = hist(int64(seed))
	st.Stages = map[string]LatencyStats{
		StageMatch:  hist(int64(seed) + 1),
		StageFanout: hist(int64(seed) + 2),
	}
	st.WireBytes = WireByteStats{InBinary: int64(seed) * 4096, OutBinary: int64(seed) * 65536}
	st.Replicas = replicas
	return st
}

// goldenExposition is WritePrometheusSnapshot over a fully populated rollup
// and two shard snapshots, the first behind a two-replica group: every
// family the exporter can emit appears in it.
func goldenExposition(t *testing.T) string {
	t.Helper()
	shards := []Stats{
		populatedStats(2, ReplicaHealth{Addr: "http://a:1", Healthy: true}, ReplicaHealth{Addr: "http://b:2"}),
		populatedStats(3),
	}
	var b strings.Builder
	if err := WritePrometheusSnapshot(&b, populatedStats(1), shards); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMetricsGolden pins the /metrics bytes and family order:
// testdata/metrics.golden was captured from WritePrometheusSnapshot at the
// commit before the metric table existed, and the table-driven writer must
// reproduce it byte for byte.
func TestMetricsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenExposition(t); got != string(want) {
		t.Errorf("/metrics text differs from testdata/metrics.golden; got:\n%s", got)
	}
}

// TestMetricTableCoversStats: every int, int64 and float64 field of Stats has
// exactly one row in the metric table, and every row names such a field — so
// a new counter cannot be merged, rolled up or exported by anything but its
// row, and cannot be forgotten by any of them.
func TestMetricTableCoversStats(t *testing.T) {
	rows := make(map[string]int)
	for _, m := range metrics {
		rows[m.field]++
	}
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Float64:
			if rows[f.Name] != 1 {
				t.Errorf("Stats.%s has %d metric-table rows, want exactly 1", f.Name, rows[f.Name])
			}
			delete(rows, f.Name)
		}
	}
	for name := range rows {
		t.Errorf("metric-table row %q names no scalar field of Stats", name)
	}
}

// randomStats draws a snapshot whose floats are dyadic rationals, so sums
// are exact and merge order cannot show up as rounding.
func randomStats(rng *rand.Rand) Stats {
	var replicas []ReplicaHealth
	for i := rng.Intn(3); i > 0; i-- {
		replicas = append(replicas, ReplicaHealth{Addr: fmt.Sprint("r", rng.Intn(100)), Healthy: rng.Intn(2) == 0})
	}
	st := populatedStats(1+rng.Intn(50), replicas...)
	v := reflect.ValueOf(&st).Elem()
	for _, m := range metrics {
		if f := v.Field(m.index); f.Kind() != reflect.Float64 {
			f.SetInt(rng.Int63n(1 << 40))
		}
	}
	if rng.Intn(4) == 0 {
		st.Stages = nil
	}
	return st
}

// TestMergeStatsIdentityAndAssociativity: merging one snapshot returns it
// (nothing — replica health included — is lost on a one-shard rollup), and
// merging is associative, so a replica-set merge nested inside a router
// rollup equals the flat merge.
func TestMergeStatsIdentityAndAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		a, b, c := randomStats(rng), randomStats(rng), randomStats(rng)
		if got := MergeStats(a); !reflect.DeepEqual(got, a) {
			t.Fatalf("MergeStats(a) != a:\n got %+v\nwant %+v", got, a)
		}
		flat := MergeStats(a, b, c)
		if got := MergeStats(MergeStats(a, b), c); !reflect.DeepEqual(got, flat) {
			t.Fatalf("(a+b)+c != a+b+c:\n got %+v\nwant %+v", got, flat)
		}
		if got := MergeStats(a, MergeStats(b, c)); !reflect.DeepEqual(got, flat) {
			t.Fatalf("a+(b+c) != a+b+c:\n got %+v\nwant %+v", got, flat)
		}
	}
}

// TestHistogramSumKeepsSubMicrosecondPrecision: a cache hit takes ~3 µs, so
// the histogram sum must not truncate observations to whole microseconds.
func TestHistogramSumKeepsSubMicrosecondPrecision(t *testing.T) {
	var h histogram
	h.observe(400 * time.Nanosecond)
	h.observe(1500 * time.Nanosecond)
	h.observe(1500 * time.Nanosecond)
	ls := h.snapshot()
	if want := 0.0034; math.Abs(ls.SumMS-want) > 1e-12 {
		t.Errorf("sum_ms = %g, want %g (400 ns + 2 × 1.5 µs)", ls.SumMS, want)
	}
	if want := 0.0034 / 3; math.Abs(ls.MeanMS-want) > 1e-12 {
		t.Errorf("mean_ms = %g, want %g", ls.MeanMS, want)
	}
}

var (
	metricFamily = regexp.MustCompile("bellflower_[a-z_]+")
	helpLine     = regexp.MustCompile(`(?m)^# HELP (\S+) (.*)\n# TYPE \S+ (\S+)$`)
)

// TestREADMEMetricsTable: the table between the README's metrics markers is
// the exporter's own HELP/TYPE metadata, family for family in exposition
// order, and no bellflower_* name anywhere in the README is one the exporter
// does not emit. There is no update flag: on a mismatch the expected block is
// printed for pasting.
func TestREADMEMetricsTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	var want strings.Builder
	want.WriteString("<!-- metrics:begin -->\n| Metric | Type | Meaning |\n| --- | --- | --- |\n")
	families := make(map[string]bool)
	for _, m := range helpLine.FindAllStringSubmatch(goldenExposition(t), -1) {
		families[m[1]] = true
		fmt.Fprintf(&want, "| `%s` | %s | %s |\n", m[1], m[3], m[2])
	}
	want.WriteString("<!-- metrics:end -->\n")

	begin, end := strings.Index(readme, "<!-- metrics:begin -->"), strings.Index(readme, "<!-- metrics:end -->\n")
	if begin < 0 || end < begin {
		t.Fatalf("README.md has no <!-- metrics:begin --> … <!-- metrics:end --> block; it should read:\n%s", want.String())
	}
	if got := readme[begin : end+len("<!-- metrics:end -->\n")]; got != want.String() {
		t.Errorf("README.md metrics block is out of date; it should read:\n%s", want.String())
	}

	for _, name := range metricFamily.FindAllString(readme, -1) {
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if !families[name] && !families[base] {
			t.Errorf("README.md names metric %s, which the exporter does not emit", name)
		}
	}
}
