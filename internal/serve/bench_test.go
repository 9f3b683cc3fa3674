package serve

import (
	"context"
	"testing"

	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// BenchmarkRouterHot is a repeated request through a router over two
// in-process shards at the paper's scale: each op is a pre-pass cache hit,
// two shard report-cache hits and the merge.
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
