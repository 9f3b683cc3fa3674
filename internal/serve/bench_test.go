package serve

import (
	"context"
	"runtime"
	"testing"

	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// BenchmarkRouterHot is a repeated request through a router over two
// in-process shards at the paper's scale: each op is a router report-cache
// hit, which asks no shard.
func BenchmarkRouterHot(b *testing.B) {
	r := NewRouterFromRepository(repogen.MustGenerate(repogen.DefaultConfig()), 2, Config{})
	defer r.Close()
	personal := schema.MustParseSpec("address(name,email,phone,city)")
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.25
	opts.TopN = 10
	if _, err := r.Match(context.Background(), personal, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Match(context.Background(), personal, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceCold is one cold in-process request per op:
// Service.MatchJSON with the cache off, cycling through the paper-scale
// request list (distinct personal schemas of 3–7 nodes, ten best
// mappings). B/op and allocs/op are what a cold request leaves behind;
// gcs/op is the collections they cost.
func BenchmarkServiceCold(b *testing.B) {
	ix, personals := paperScale()
	s := New(pipeline.NewRunnerFromIndexes(ix, matcher.NewNameIndex(ix.Repository())), Config{Workers: 1, CacheSize: -1})
	defer s.Close()
	opts := coldOptions()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MatchJSON(context.Background(), personals[i%len(personals)], opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}
