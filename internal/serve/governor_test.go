package serve

import (
	"context"
	"testing"

	"bellflower/internal/mapgen"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

// auditGovernor recomputes the governor's byte account from its resident
// entries; the invariant under test everywhere is used == Σ entry bytes,
// i.e. the accounting matches what eviction actually left resident.
func auditGovernor(t *testing.T, g *memGovernor) int64 {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	var sum int64
	var perSpace = map[*cacheSpace]int64{}
	count := 0
	for el := g.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*govEntry)
		sum += e.bytes
		perSpace[e.space] += e.bytes
		if e.space.byKey[e.key] != el {
			t.Fatalf("entry %q not reachable through its space", e.key)
		}
		count++
	}
	total := 0
	for s, b := range perSpace {
		if s.bytes != b {
			t.Fatalf("space accounts %d bytes, entries sum to %d", s.bytes, b)
		}
		total += len(s.byKey)
	}
	if total != count {
		t.Fatalf("%d entries in order list, %d in space maps", count, total)
	}
	if g.used != sum {
		t.Fatalf("governor accounts %d bytes, resident entries sum to %d", g.used, sum)
	}
	return sum
}

func TestGovernorByteBudgetEviction(t *testing.T) {
	g := newGovernor(100)
	s := g.space(100)

	s.add("a", "A", 40)
	s.add("b", "B", 40)
	auditGovernor(t, g)
	if used, _, _ := g.snapshot(); used != 80 {
		t.Fatalf("used = %d, want 80", used)
	}

	// 30 more bytes exceed the budget: the LRU entry (a) must go, and the
	// account must reflect exactly the survivors.
	s.add("c", "C", 30)
	if _, ok := s.get("a"); ok {
		t.Error("a survived past the byte budget")
	}
	if _, ok := s.get("b"); !ok {
		t.Error("b evicted although evicting a sufficed")
	}
	if got := auditGovernor(t, g); got != 70 {
		t.Errorf("resident bytes = %d, want 70", got)
	}
	if _, _, evictions := g.snapshot(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}

	// Touching b, then overflowing, must evict c (the new LRU), not b.
	s.get("b")
	s.add("d", "D", 50) // 70+50=120 > 100 → evict c (30) → 90
	if _, ok := s.get("c"); ok {
		t.Error("c survived although it was least recently used")
	}
	if _, ok := s.get("b"); !ok {
		t.Error("recently-touched b was evicted")
	}
	if got := auditGovernor(t, g); got != 90 {
		t.Errorf("resident bytes = %d, want 90", got)
	}

	// An entry larger than the whole budget never stays resident.
	s.add("huge", "H", 1000)
	if _, ok := s.get("huge"); ok {
		t.Error("oversized entry stayed cached")
	}
	if used, _, _ := g.snapshot(); used > 100 {
		t.Errorf("used = %d exceeds the budget", used)
	}
	auditGovernor(t, g)
}

func TestGovernorEvictsAcrossSpaces(t *testing.T) {
	g := newGovernor(100)
	shard := g.space(100)
	router := g.space(100)

	shard.add("r1", "R", 60)
	router.add("p1", "P", 30)
	// The next add overflows; the globally oldest entry is r1 from the
	// OTHER space — unified governance means it goes first.
	router.add("p2", "P", 40)
	if _, ok := shard.get("r1"); ok {
		t.Error("byte pressure did not evict across spaces")
	}
	if _, ok := router.get("p1"); !ok {
		t.Error("younger entry in the charging space was evicted instead")
	}
	auditGovernor(t, g)
}

func TestGovernorCountCapPerSpace(t *testing.T) {
	g := newGovernor(0) // no byte bound: count caps alone
	a := g.space(2)
	b := g.space(100)

	b.add("keep", "K", 1)
	a.add("x", 1, 1)
	a.add("y", 2, 1)
	a.add("z", 3, 1) // a over cap: evict a's own oldest (x), never b's
	if _, ok := a.get("x"); ok {
		t.Error("x survived past the space cap")
	}
	if _, ok := b.get("keep"); !ok {
		t.Error("count cap of one space evicted another space's entry")
	}
	if a.len() != 2 || b.len() != 1 {
		t.Errorf("lens = %d/%d, want 2/1", a.len(), b.len())
	}
	auditGovernor(t, g)
}

func TestGovernorResize(t *testing.T) {
	g := newGovernor(100)
	s := g.space(10)

	v := "V"
	s.add("k", v, 10)
	s.resize("k", v, 42)
	if used, _, _ := g.snapshot(); used != 42 {
		t.Fatalf("resized entry accounts %d bytes, want 42", used)
	}
	// Resizing with a stale value, or a key that is not resident, is a
	// no-op; growing past the budget evicts.
	s.resize("k", "other", 9999)
	s.resize("absent", v, 9999)
	if used, _, _ := g.snapshot(); used != 42 {
		t.Error("resize with a foreign value or key re-accounted an entry")
	}
	s.resize("k", v, 101)
	if _, ok := s.get("k"); ok {
		t.Error("entry resized past the whole budget stayed resident")
	}
	if used, _, _ := g.snapshot(); used != 0 {
		t.Errorf("evicted entry still accounted: used = %d", used)
	}
	auditGovernor(t, g)
}

func TestGovernorDisabledSpace(t *testing.T) {
	g := newGovernor(100)
	s := g.space(0)
	s.add("a", "A", 10)
	if _, ok := s.get("a"); ok {
		t.Error("disabled space stored an entry")
	}
	if used, _, _ := g.snapshot(); used != 0 {
		t.Errorf("disabled space charged %d bytes", used)
	}
}

// TestServiceCacheByteAccounting drives the governor through the real
// Service surface: reports cached under a tiny byte budget must evict, the
// stats gauges must track the governor, and the accounting must equal the
// resident reports' estimates.
func TestServiceCacheByteAccounting(t *testing.T) {
	repo := testRepo(t)
	// Budget sized to hold roughly one report: the second distinct request
	// must push the first out.
	s := NewFromRepository(repo, Config{Workers: 2, CacheBytes: 600})
	defer s.Close()

	opts := testOpts()
	rep1, err := s.Match(context.Background(), personal(), opts)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheBytes != reportBytes(rep1) {
		t.Errorf("CacheBytes = %d, want the cached report's estimate %d", st.CacheBytes, reportBytes(rep1))
	}
	if st.CacheByteBudget != 600 {
		t.Errorf("CacheByteBudget = %d, want 600", st.CacheByteBudget)
	}
	if st.IndexBytes != s.runner.Index().MemoryBytes() {
		t.Errorf("IndexBytes = %d, want %d", st.IndexBytes, s.runner.Index().MemoryBytes())
	}

	// Distinct requests with distinct signatures churn the cache; the
	// resident bytes must never exceed the budget (unless a single report
	// alone does, in which case nothing is resident).
	for i := 0; i < 6; i++ {
		o := opts
		o.TopN = 50 + i
		if _, err := s.Match(context.Background(), personal(), o); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Stats()
	if st.CacheBytes > 600 {
		t.Errorf("resident cache bytes %d exceed the 600-byte budget", st.CacheBytes)
	}
	if st.CacheEvictions == 0 {
		t.Error("no evictions recorded although the budget forced churn")
	}
	auditGovernor(t, s.gov)
}

// TestRouterUnifiedGovernor: the shards of one view-backed router and its
// own report cache all charge one governor, and the rollup reports the
// governor's account (shard reports + merged reports), a single shared
// budget, and a single shared index.
func TestRouterUnifiedGovernor(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 3, Config{Workers: 1, CacheBytes: 1 << 20})
	defer r.Close()

	for i := 0; i < 3; i++ {
		opts := testOpts()
		opts.TopN = 10 + i
		if _, err := r.Match(context.Background(), personal(), opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := range r.shards {
		s := localShard(r, i)
		if s.gov != r.gov {
			t.Fatalf("shard %d owns a private governor", i)
		}
		if s.runner.Index() != r.fullRunner.Index() {
			t.Fatalf("shard %d owns a private index", i)
		}
	}
	total, shards := r.Snapshot()
	var shardCache int64
	for _, st := range shards {
		shardCache += st.CacheBytes
	}
	if n := r.cache.Len(); n != 3 {
		t.Errorf("router caches %d merged reports, want 3", n)
	}
	routerBytes := r.cache.Bytes()
	if routerBytes <= 0 {
		t.Error("merged reports not byte-accounted")
	}
	if total.CacheBytes != shardCache+routerBytes {
		t.Errorf("rollup CacheBytes = %d, want shard reports %d + merged reports %d",
			total.CacheBytes, shardCache, routerBytes)
	}
	if total.CacheByteBudget != 1<<20 {
		t.Errorf("rollup budget = %d, want %d", total.CacheByteBudget, 1<<20)
	}
	if want := r.fullRunner.Index().MemoryBytes(); total.IndexBytes != want {
		t.Errorf("rollup IndexBytes = %d, want exactly one full index (%d)", total.IndexBytes, want)
	}
	auditGovernor(t, r.gov)
}

// TestRouterSharedIndexFootprint pins the shared-index claim with numbers:
// a router's resident index bytes equal an unsharded service's, for every
// shard count.
func TestRouterSharedIndexFootprint(t *testing.T) {
	repo := syntheticRepo(t, 400, 5)
	unsharded := NewFromRepository(repo, Config{Workers: 1})
	defer unsharded.Close()
	want := unsharded.Stats().IndexBytes
	if want <= 0 {
		t.Fatal("unsharded index bytes not positive")
	}

	for shards := 1; shards <= 8; shards++ {
		r := NewRouterFromRepository(repo, shards, Config{Workers: 1})
		total, _ := r.Snapshot()
		if total.IndexBytes != want {
			t.Errorf("shards=%d: resident index bytes %d, want %d (one shared index regardless of shard count)",
				shards, total.IndexBytes, want)
		}
		r.Close()
	}
}

// TestReportBytesGrowsWithContent sanity-checks the size estimator the
// governor charges reports at.
func TestReportBytesGrowsWithContent(t *testing.T) {
	small := &pipeline.Report{}
	big := &pipeline.Report{ClusterSizes: make([]int, 100)}
	for i := 0; i < 50; i++ {
		big.Mappings = append(big.Mappings, mappingOfWidth(3))
	}
	if reportBytes(big) <= reportBytes(small) {
		t.Errorf("reportBytes(big)=%d <= reportBytes(small)=%d", reportBytes(big), reportBytes(small))
	}
	withErr := &pipeline.Report{ShardErrors: []pipeline.ShardError{{Shard: 1, Err: "boom"}}}
	if reportBytes(withErr) <= reportBytes(small) {
		t.Error("shard errors not accounted")
	}
}

func mappingOfWidth(w int) (m mapgen.Mapping) {
	m.Images = make([]*schema.Node, w)
	m.Sims = make([]float64, w)
	return m
}
